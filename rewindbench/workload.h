// RewindBench workload definitions, shared by the served load generator
// (loadgen.cc) and the in-process replay (replay.cc): the four named
// workloads, the seeded per-thread op streams, and the self-checking value
// encoding every write carries.
//
// Everything here is a pure function of (workload, seed, thread): two runs
// with one seed issue the same op sequence on every thread, and the server
// only ever sees the generated requests.
#ifndef REWINDBENCH_WORKLOAD_H_
#define REWINDBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace rwdbench {

/// Keys [1, kLoadKeys] are loaded before every run; inserts go above.
constexpr std::uint64_t kLoadKeys = 100000;
/// Bytes per value (load, update and insert alike).
constexpr std::size_t kValueSize = 100;
/// Keys per MPUT during the load phase.
constexpr std::size_t kLoadBatch = 100;
/// kv_server's built-in arena size (its --heap-mb default).
constexpr std::uint64_t kArenaBytes = 512ull << 20;
/// Keys per MPUT op.
constexpr std::uint32_t kMputKeys = 8;
/// Scan lengths are 1 + a zipfian rank over [0, kMaxScanLen).
constexpr std::uint32_t kMaxScanLen = 100;

// --- deterministic randomness -------------------------------------------

inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// xoshiro256** seeded through SplitMix64: fully specified here, so the op
/// streams do not depend on the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (std::uint64_t& w : s_) {
      seed = SplitMix64(seed);
      w = seed;
    }
  }
  std::uint64_t Next() {
    std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Zipfian ranks over [0, n) with YCSB's theta = 0.99 (Gray et al.'s
/// rejection-free inversion). Rank 0 is the most frequent.
class Zipfian {
 public:
  explicit Zipfian(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  std::uint64_t Next(Rng& rng) const {
    double u = rng.Unit();
    double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

// --- self-checking values -------------------------------------------------
//
// Layout (kValueSize bytes): [key:u64][version:u64][check:u64][filler].
// The filler is a pure function of (key, version); `check` is FNV-1a over
// every other byte. A reader can therefore tell a torn value (check fails)
// from a foreign one (intact, but written for another key).

inline std::uint64_t ValueCheckSum(const char* v) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < kValueSize; ++i) {
    if (i >= 16 && i < 24) continue;
    h ^= static_cast<unsigned char>(v[i]);
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string EncodeValue(std::uint64_t key, std::uint64_t version) {
  std::string v(kValueSize, '\0');
  std::memcpy(&v[0], &key, 8);
  std::memcpy(&v[8], &version, 8);
  std::uint64_t x = key * 0x9e3779b97f4a7c15ull ^ version;
  for (std::size_t i = 24; i < kValueSize; i += 8) {
    x = SplitMix64(x);
    std::memcpy(&v[i], &x, std::min<std::size_t>(8, kValueSize - i));
  }
  std::uint64_t check = ValueCheckSum(v.data());
  std::memcpy(&v[16], &check, 8);
  return v;
}

enum class ValueStatus { kOk, kWrongSize, kTorn, kForeign };

inline const char* ValueStatusName(ValueStatus s) {
  switch (s) {
    case ValueStatus::kOk: return "ok";
    case ValueStatus::kWrongSize: return "wrong-size";
    case ValueStatus::kTorn: return "torn";
    case ValueStatus::kForeign: return "foreign";
  }
  return "?";
}

/// Checks that `v` is an intact value written for `key`; `*version` (may be
/// null) receives the version it carries.
inline ValueStatus CheckValue(std::uint64_t key, std::string_view v,
                              std::uint64_t* version = nullptr) {
  if (v.size() != kValueSize) return ValueStatus::kWrongSize;
  std::uint64_t stored_key, stored_version, check;
  std::memcpy(&stored_key, v.data(), 8);
  std::memcpy(&stored_version, v.data() + 8, 8);
  std::memcpy(&check, v.data() + 16, 8);
  // The checksum catches a torn header; recomputing the whole value also
  // catches filler mixed from two versions.
  if (check != ValueCheckSum(v.data()) ||
      v != EncodeValue(stored_key, stored_version)) {
    return ValueStatus::kTorn;
  }
  if (stored_key != key) return ValueStatus::kForeign;
  if (version != nullptr) *version = stored_version;
  return ValueStatus::kOk;
}

// --- workloads ------------------------------------------------------------

enum class OpKind : std::uint8_t { kGet, kUpdate, kInsert, kMput, kScan };

struct Workload {
  const char* name;
  double get_prop;
  double update_prop;
  double insert_prop;
  double mput_prop;
  double scan_prop;
  /// Load-generator threads, one KvClient connection each.
  std::uint32_t threads;
  /// Closed loop: requests in flight per connection. 0 = open loop.
  std::uint32_t depth;
  /// Open loop only: total offered ops/s, split evenly across threads.
  double rate;
  /// Replay: writes grouped per ApplyBatch call (about the served run's
  /// batcher.writes_per_batch), and ops replayed.
  std::uint32_t replay_batch;
  std::uint64_t replay_ops;
};

/// The benchmark's workloads. Every one loads kLoadKeys keys of kValueSize
/// bytes through MPUT, draws keys zipfian over the loaded set, and runs on
/// kv_server's default 4-shard hash layout. Thread counts and rates are
/// fixed here (not adapted at run time) so that a regression shows.
inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // YCSB A, open loop at about a third of its closed-loop capacity
      // (31k ops/s with four threads at depth 16). Four threads: with two,
      // a thread blocked on one reply delays its next sends by
      // milliseconds at the tail.
      {"a-paced", 0.5, 0.5, 0, 0, 0, /*threads=*/4, /*depth=*/0,
       /*rate=*/10000, /*replay_batch=*/2, /*replay_ops=*/200000},
      // Preset w: 40% update / 40% insert / 20% 8-key MPUT. Two threads:
      // more load-generator threads take cores from the server's threads.
      // Depth 4: deeper pipelines add only queueing, and their tails
      // spread twice as much from run to run.
      {"w-ingest", 0, 0.4, 0.4, 0.2, 0, 2, 4, 0, 16, 100000},
      // YCSB C: reads only.
      {"c-read", 1.0, 0, 0, 0, 0, 4, 16, 0, 1, 400000},
      // YCSB E: 95% scans (zipfian length <= 100), 5% inserts.
      {"e-scan", 0, 0, 0.05, 0, 0.95, 2, 4, 0, 1, 20000},
  };
  return kWorkloads;
}

inline const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Op {
  OpKind kind = OpKind::kGet;
  std::uint64_t key = 0;      ///< first key (MPUT: keys follow in `keys`)
  std::uint32_t len = 0;      ///< scan length
  std::uint64_t version = 0;  ///< version written (0 = insert/load)
  std::vector<std::uint64_t> keys;  ///< MPUT keys
};

/// Checks a scan result: ascending keys, every loaded key in range present
/// and contiguous from the start key, no more items than asked, intact
/// values. Loaded keys are never deleted, so a scan that starts at or
/// below kLoadKeys has a fully known prefix.
inline bool CheckScan(
    const Op& op,
    const std::vector<std::pair<std::uint64_t, std::string>>& items,
    std::string* why) {
  std::uint64_t loaded_in_range =
      op.key > kLoadKeys
          ? 0
          : std::min<std::uint64_t>(op.len, kLoadKeys - op.key + 1);
  if (items.size() > op.len) {
    *why = "scan returned more items than asked";
    return false;
  }
  if (items.size() < loaded_in_range) {
    *why = "short scan: " + std::to_string(items.size()) + " of " +
           std::to_string(loaded_in_range) + " loaded keys";
    return false;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::uint64_t k = items[i].first;
    bool in_order = i < loaded_in_range
                        ? k == op.key + i
                        : k > kLoadKeys && (i == 0 || k > items[i - 1].first);
    if (!in_order) {
      *why = "unordered or non-contiguous scan at item " + std::to_string(i);
      return false;
    }
    ValueStatus vs = CheckValue(k, items[i].second);
    if (vs != ValueStatus::kOk) {
      *why = "scan item " + std::to_string(k) + " " + ValueStatusName(vs);
      return false;
    }
  }
  return true;
}

/// One load-generator thread's op stream. Reads, updates and scan starts
/// draw a scrambled zipfian over the loaded keys; inserts take this
/// thread's own stride of fresh keys above kLoadKeys, so streams never
/// collide and every inserted key is written exactly once.
class OpStream {
 public:
  OpStream(const Workload& w, std::uint64_t seed, std::uint32_t thread)
      : w_(w),
        thread_(thread),
        rng_(SplitMix64(seed) ^ SplitMix64(0x5eed0000ull + thread)),
        keys_(KeyZipf()),
        lens_(kMaxScanLen) {}

  Op Next() {
    Op op;
    double u = rng_.Unit();
    if ((u -= w_.get_prop) < 0) {
      op.kind = OpKind::kGet;
      op.key = LoadedKey();
    } else if ((u -= w_.update_prop) < 0) {
      op.kind = OpKind::kUpdate;
      op.key = LoadedKey();
      op.version = (static_cast<std::uint64_t>(thread_ + 1) << 40) | ++seq_;
    } else if ((u -= w_.insert_prop) < 0) {
      op.kind = OpKind::kInsert;
      op.key = FreshKey();
    } else if ((u -= w_.mput_prop) < 0) {
      op.kind = OpKind::kMput;
      for (std::uint32_t i = 0; i < kMputKeys; ++i) {
        op.keys.push_back(FreshKey());
      }
      op.key = op.keys.front();
    } else {
      op.kind = OpKind::kScan;
      op.key = LoadedKey();
      op.len = 1 + static_cast<std::uint32_t>(lens_.Next(rng_));
    }
    return op;
  }

 private:
  static const Zipfian& KeyZipf() {
    static const Zipfian z(kLoadKeys);
    return z;
  }
  std::uint64_t LoadedKey() {
    return 1 + SplitMix64(keys_.Next(rng_)) % kLoadKeys;
  }
  std::uint64_t FreshKey() {
    return kLoadKeys + 1 + inserts_++ * w_.threads + thread_;
  }

  const Workload& w_;
  std::uint32_t thread_;
  Rng rng_;
  const Zipfian& keys_;
  Zipfian lens_;
  std::uint64_t seq_ = 0;
  std::uint64_t inserts_ = 0;
};

}  // namespace rwdbench

#endif  // REWINDBENCH_WORKLOAD_H_
