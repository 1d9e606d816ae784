// RewindBench load generator: drives a running kv_server over loopback
// through KvClient only (no STATS v1), checks every reply, and prints one
// `result` line for run.py. Modes:
//
//   rewindbench load     --port=P
//       loads keys [1, kLoadKeys] through pipelined MPUTs, prints `loaded`.
//   rewindbench run      --port=P --workload=W --seed=S --seconds=T
//                        [--trace=1 --spans-out=FILE]
//       load, then one timed window (untraced), or with --trace=1 an
//       untraced window followed by a traced one whose client spans go to
//       FILE and whose STATS v2 deltas give the server per-layer numbers;
//       then a read-back of every loaded key and every acked insert.
//   rewindbench replay   --workload=W --seed=S   (see replay.cc)
//   rewindbench selftest --port=P
//       injects a torn value, a foreign value, a deleted loaded key and a
//       never-written "acked" insert, and exits 0 only if all are caught.
//
// Latency and throughput are measured per half-second slice of the window
// and reported as the median over slices, which keeps one stalled slice
// from moving a run.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "workload.h"

namespace rwdbench {

int RunReplay(const Workload& w, std::uint64_t seed);

namespace {

using rwd::serve::KvClient;
using rwd::serve::Status;

constexpr const char* kHost = "127.0.0.1";
constexpr int kRecvTimeoutMs = 10000;
constexpr std::uint64_t kSliceNs = 500000000ull;
constexpr std::uint64_t kWarmupNs = 1000000000ull;
/// Traced windows keep the spans of one op in this many: a fast workload
/// completes millions of ops per window.
constexpr std::uint64_t kSpanEvery = 16;
/// Open loop: never let more than this many requests queue on one
/// connection (an overloaded server shows as send lag, not as an
/// unbounded socket backlog).
constexpr std::size_t kMaxOpenInflight = 256;

std::string Flag(int argc, char** argv, const char* name,
                 const std::string& def = "") {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

std::uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void SleepUntil(std::uint64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// --- failure log ----------------------------------------------------------

std::mutex g_fail_mu;
std::uint64_t g_fail_logged = 0;

/// Reports one failed op on stderr (the first 20 of a run).
void LogFailure(const char* what, std::uint64_t key, const char* detail) {
  std::lock_guard<std::mutex> lock(g_fail_mu);
  if (++g_fail_logged > 20) return;
  std::fprintf(stderr, "rewindbench: FAILED %s key=%" PRIu64 ": %s\n", what,
               key, detail);
}

// --- per-thread driver state ----------------------------------------------

enum Cls : std::uint8_t { kClsRead = 0, kClsWrite = 1, kClsScan = 2 };
constexpr int kClasses = 3;

struct Sample {
  std::uint32_t lat_ns;  ///< capped at ~4.29 s
  std::uint8_t cls;
  std::uint16_t slice;
};

/// A client-side span: one per op ("op", parent 0), with children for the
/// time spent queueing and flushing it ("send") and blocked reading its
/// reply ("wait"), whose `parent` is the op span's id.
struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint8_t name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};
const char* const kSpanNames[] = {"op", "send", "wait"};

struct Inflight {
  Op op;
  std::uint64_t origin_ns;  ///< latency origin: queue time, or due time
  std::uint64_t queued_ns;
  std::uint64_t span_id;
};

struct Window {
  std::uint64_t start_ns;    ///< sends begin (warm-up starts)
  std::uint64_t measure_ns;  ///< completions from here on are measured
  std::uint64_t deadline_ns;
  bool trace;
};

struct Driver {
  std::uint32_t idx = 0;
  KvClient client;
  OpStream stream;
  std::deque<Inflight> inflight;
  bool dead = false;
  // Per window (reset by ResetWindow).
  std::vector<Sample> samples;
  std::vector<std::uint64_t> lag_ns;
  std::vector<Span> spans;
  std::uint64_t wait_ns = 0;
  std::uint64_t scan_items[128] = {};  ///< per slice
  /// First and last completion time per slice (0 = none yet).
  std::uint64_t slice_first[128] = {};
  std::uint64_t slice_last[128] = {};
  // Whole run.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t next_span = 1;
  std::vector<std::uint64_t> acked_inserts;

  Driver(const Workload& w, std::uint64_t seed, std::uint32_t i)
      : idx(i), stream(w, seed, i) {}

  void ResetWindow() {
    samples.clear();
    lag_ns.clear();
    spans.clear();
    wait_ns = 0;
    std::fill(std::begin(scan_items), std::end(scan_items), 0);
    std::fill(std::begin(slice_first), std::end(slice_first), 0);
    std::fill(std::begin(slice_last), std::end(slice_last), 0);
  }
};

/// Slice index of a completion, or -1 outside the measured window.
int SliceOf(const Window& win, std::uint64_t t) {
  if (t < win.measure_ns || t >= win.deadline_ns) return -1;
  std::uint64_t s = (t - win.measure_ns) / kSliceNs;
  return s < 128 ? static_cast<int>(s) : -1;
}

void Queue(Driver& d, Op op, std::uint64_t origin_ns, const Window& win) {
  std::uint64_t now = NowNs();
  switch (op.kind) {
    case OpKind::kGet:
      d.client.QueueGet(op.key);
      break;
    case OpKind::kUpdate:
    case OpKind::kInsert:
      d.client.QueuePut(op.key, EncodeValue(op.key, op.version));
      break;
    case OpKind::kMput: {
      std::vector<std::pair<std::uint64_t, std::string>> kvs;
      kvs.reserve(op.keys.size());
      for (std::uint64_t k : op.keys) kvs.emplace_back(k, EncodeValue(k, 0));
      d.client.QueueMput(kvs);
      break;
    }
    case OpKind::kScan:
      d.client.QueueScan(op.key, op.len);
      break;
  }
  // Spans are kept for one op in kSpanEvery (ids stay unique per op).
  std::uint64_t seq = d.next_span++;
  std::uint64_t span = win.trace && seq % kSpanEvery == 0
                           ? (static_cast<std::uint64_t>(d.idx) << 48) | seq
                           : 0;
  d.inflight.push_back({std::move(op), origin_ns, now, span});
}

/// Fails every outstanding op of a connection that died.
void Die(Driver& d, const char* why) {
  if (d.dead) return;
  d.dead = true;
  std::fprintf(stderr,
               "rewindbench: connection %u lost (%s); %zu outstanding ops "
               "counted as failed\n",
               d.idx, why, d.inflight.size());
  d.attempted += d.inflight.size();
  d.failed += d.inflight.size();
  d.inflight.clear();
}

/// Flushes everything queued; `fresh` ops at the back get "send" spans.
void Flush(Driver& d, std::size_t fresh, const Window& win) {
  if (!d.client.Flush()) {
    Die(d, "send failed");
    return;
  }
  if (!win.trace) return;
  std::uint64_t end = NowNs();
  for (std::size_t i = d.inflight.size() - fresh; i < d.inflight.size();
       ++i) {
    const Inflight& f = d.inflight[i];
    if (f.span_id == 0) continue;
    d.spans.push_back({f.span_id * 4 + 1, f.span_id * 4, 1, f.queued_ns,
                       end - f.queued_ns});
  }
}

/// Verifies one reply and accounts for it.
void Complete(Driver& d, Inflight& f, const KvClient::Reply& r,
              std::uint64_t done_ns, std::uint64_t wait_start_ns,
              const Window& win) {
  ++d.attempted;
  bool ok = r.status == Status::kOk;
  const char* what = "op";
  std::string why = ok ? "" : "status " + std::to_string(
                                              static_cast<int>(r.status));
  std::uint8_t cls = kClsWrite;
  std::size_t items = 0;
  switch (f.op.kind) {
    case OpKind::kGet: {
      what = "get";
      cls = kClsRead;
      if (r.status == Status::kNotFound) why = "loaded key not found";
      if (ok) {
        ValueStatus vs = CheckValue(f.op.key, r.payload);
        ok = vs == ValueStatus::kOk;
        if (!ok) why = ValueStatusName(vs);
      }
      break;
    }
    case OpKind::kUpdate:
      what = "put";
      break;
    case OpKind::kInsert:
      what = "insert";
      if (ok) d.acked_inserts.push_back(f.op.key);
      break;
    case OpKind::kMput:
      what = "mput";
      if (ok) {
        d.acked_inserts.insert(d.acked_inserts.end(), f.op.keys.begin(),
                               f.op.keys.end());
      }
      break;
    case OpKind::kScan: {
      what = "scan";
      cls = kClsScan;
      if (ok) {
        std::vector<std::pair<std::uint64_t, std::string>> kvs;
        bool truncated = false;
        ok = rwd::serve::DecodeScanPayload(r.payload, &kvs, &truncated) &&
             !truncated;
        if (!ok) why = "undecodable or truncated scan reply";
        if (ok) ok = CheckScan(f.op, kvs, &why);
        items = kvs.size();
      }
      break;
    }
  }
  if (!ok) {
    ++d.failed;
    LogFailure(what, f.op.key, why.c_str());
    return;
  }
  int slice = SliceOf(win, done_ns);
  if (slice >= 0) {
    std::uint64_t lat = done_ns - f.origin_ns;
    d.samples.push_back(
        {static_cast<std::uint32_t>(std::min<std::uint64_t>(lat, ~0u)), cls,
         static_cast<std::uint16_t>(slice)});
    d.scan_items[slice] += items;
    if (d.slice_first[slice] == 0) d.slice_first[slice] = done_ns;
    d.slice_last[slice] = done_ns;
  }
  if (f.span_id != 0) {
    d.spans.push_back({f.span_id * 4, 0, 0, f.origin_ns,
                       done_ns - f.origin_ns});
    d.spans.push_back({f.span_id * 4 + 2, f.span_id * 4, 2, wait_start_ns,
                       done_ns - wait_start_ns});
  }
}

/// Reads the oldest outstanding reply (blocking).
void ReadOne(Driver& d, const Window& win) {
  KvClient::Reply r;
  std::uint64_t t0 = NowNs();
  if (!d.client.ReadReply(&r)) {
    Die(d, "no reply: server gone or timed out");
    return;
  }
  std::uint64_t t1 = NowNs();
  if (win.trace && t1 >= win.measure_ns && t0 < win.deadline_ns) {
    d.wait_ns += std::min(t1, win.deadline_ns) - std::max(t0, win.measure_ns);
  }
  Complete(d, d.inflight.front(), r, t1, t0, win);
  d.inflight.pop_front();
}

void Drain(Driver& d, const Window& win) {
  while (!d.dead && !d.inflight.empty()) ReadOne(d, win);
}

void ClosedLoop(Driver& d, const Workload& w, const Window& win) {
  while (!d.dead && NowNs() < win.deadline_ns) {
    std::size_t fresh = 0;
    while (d.inflight.size() < w.depth) {
      Queue(d, d.stream.Next(), NowNs(), win);
      ++fresh;
    }
    if (fresh != 0) Flush(d, fresh, win);
    if (!d.dead) ReadOne(d, win);
  }
  Drain(d, win);
}

/// Open loop: sends on a fixed schedule regardless of replies; latency is
/// timed from each request's due time, so a stalled reply also charges the
/// requests it delayed. Replies are read between sends.
void OpenLoop(Driver& d, const Workload& w, const Window& win) {
  double interval_ns = 1e9 * w.threads / w.rate;
  double phase = static_cast<double>(d.idx) / w.threads;
  for (std::uint64_t k = 0; !d.dead;) {
    auto due = win.start_ns +
               static_cast<std::uint64_t>((static_cast<double>(k) + phase) *
                                          interval_ns);
    if (due >= win.deadline_ns) break;
    std::uint64_t now = NowNs();
    if (now >= due && d.inflight.size() < kMaxOpenInflight) {
      Queue(d, d.stream.Next(), due, win);
      Flush(d, 1, win);
      if (due >= win.measure_ns) d.lag_ns.push_back(now - due);
      ++k;
    } else if (!d.inflight.empty()) {
      ReadOne(d, win);
    } else {
      SleepUntil(due);
    }
  }
  Drain(d, win);
}

// --- window statistics ------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct ClassStats {
  std::uint64_t count = 0;
  double p50_us = 0;  ///< median over slices of the slice p50
  double p90_us = 0;
  double p99_us = 0;
  double mean_us = 0;  ///< over the whole window
};

struct WindowStats {
  double seconds = 0;
  std::uint64_t ops = 0;
  double ops_per_s = 0;  ///< median over slices
  ClassStats all;
  ClassStats cls[kClasses];
  /// Per-class percentiles weighted by each class's share of the ops: a
  /// 50/50 read/write mix has no stable overall median (it falls in the
  /// gap between the read and the write mode), but each class has one.
  double mix_p50_us = 0;
  double mix_p90_us = 0;
  double scan_items_per_s = 0;
  double lag_p50_us = 0;
  double lag_p99_us = 0;
  double wait_frac = 0;
};

/// Median over slices of a per-slice percentile; slices with fewer than
/// `min_samples` samples are skipped.
ClassStats Summarize(const std::vector<std::vector<std::uint32_t>>& slices,
                     std::size_t min_samples) {
  ClassStats cs;
  std::vector<double> p50s, p90s, p99s;
  double sum = 0;
  for (std::vector<std::uint32_t> s : slices) {
    cs.count += s.size();
    for (std::uint32_t v : s) sum += v;
    if (s.size() < min_samples) continue;
    p50s.push_back(Percentile(s, 50) / 1e3);
    p90s.push_back(Percentile(s, 90) / 1e3);
    p99s.push_back(Percentile(s, 99) / 1e3);
  }
  cs.p50_us = Median(p50s);
  cs.p90_us = Median(p90s);
  cs.p99_us = Median(p99s);
  cs.mean_us = cs.count ? sum / static_cast<double>(cs.count) / 1e3 : 0;
  return cs;
}

WindowStats Summarize(std::vector<std::unique_ptr<Driver>>& drivers,
                      const Window& win) {
  WindowStats ws;
  ws.seconds = static_cast<double>(win.deadline_ns - win.measure_ns) / 1e9;
  std::size_t slices = static_cast<std::size_t>(
      (win.deadline_ns - win.measure_ns + kSliceNs - 1) / kSliceNs);
  std::vector<std::vector<std::uint32_t>> all(slices);
  std::vector<std::vector<std::vector<std::uint32_t>>> by_cls(
      kClasses, std::vector<std::vector<std::uint32_t>>(slices));
  std::vector<double> items(slices, 0);
  std::vector<std::uint64_t> first(slices, ~std::uint64_t{0}), last(slices, 0);
  std::vector<std::uint64_t> lags;
  std::uint64_t wait = 0;
  for (auto& d : drivers) {
    for (const Sample& s : d->samples) {
      all[s.slice].push_back(s.lat_ns);
      by_cls[s.cls][s.slice].push_back(s.lat_ns);
    }
    for (std::size_t i = 0; i < slices; ++i) {
      items[i] += d->scan_items[i];
      if (d->slice_first[i] != 0) {
        first[i] = std::min(first[i], d->slice_first[i]);
        last[i] = std::max(last[i], d->slice_last[i]);
      }
    }
    lags.insert(lags.end(), d->lag_ns.begin(), d->lag_ns.end());
    wait += d->wait_ns;
  }
  std::vector<double> rates, item_rates;
  for (std::size_t i = 0; i < slices; ++i) {
    std::uint64_t len_ns = std::min<std::uint64_t>(
        kSliceNs, win.deadline_ns - win.measure_ns - i * kSliceNs);
    if (len_ns < kSliceNs / 2) continue;  // a short tail slice is too noisy
    if (all[i].size() < 2) {
      rates.push_back(0);
      item_rates.push_back(0);
      continue;
    }
    // Rate between the slice's first and last completion: exact even for
    // an open loop, whose completion count per slice is nearly fixed.
    double span = static_cast<double>(last[i] - first[i]) / 1e9;
    double len = span * static_cast<double>(all[i].size()) /
                 static_cast<double>(all[i].size() - 1);
    rates.push_back(static_cast<double>(all[i].size()) / len);
    item_rates.push_back(items[i] / len);
  }
  ws.ops_per_s = Median(rates);
  ws.scan_items_per_s = Median(item_rates);
  ws.all = Summarize(all, 100);
  ws.ops = ws.all.count;
  for (int c = 0; c < kClasses; ++c) {
    ws.cls[c] = Summarize(by_cls[c], 100);
    double share = Ratio(static_cast<double>(ws.cls[c].count),
                         static_cast<double>(ws.ops));
    ws.mix_p50_us += share * ws.cls[c].p50_us;
    ws.mix_p90_us += share * ws.cls[c].p90_us;
  }
  ws.lag_p50_us = Percentile(lags, 50) / 1e3;
  ws.lag_p99_us = Percentile(lags, 99) / 1e3;
  ws.wait_frac = static_cast<double>(wait) /
                 (static_cast<double>(drivers.size()) * ws.seconds * 1e9);
  return ws;
}

WindowStats RunWindow(std::vector<std::unique_ptr<Driver>>& drivers,
                      const Workload& w, double seconds, bool trace,
                      std::uint64_t warmup_ns) {
  Window win;
  win.start_ns = NowNs() + 1000000;  // every thread starts on one schedule
  win.measure_ns = win.start_ns + warmup_ns;
  win.deadline_ns =
      win.measure_ns + static_cast<std::uint64_t>(seconds * 1e9);
  win.trace = trace;
  std::vector<std::thread> threads;
  for (auto& d : drivers) {
    d->ResetWindow();
    Driver* dp = d.get();
    threads.emplace_back([dp, &w, win] {
      SleepUntil(win.start_ns);
      if (w.depth == 0) {
        OpenLoop(*dp, w, win);
      } else {
        ClosedLoop(*dp, w, win);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Summarize(drivers, win);
}

// --- STATS v2 --------------------------------------------------------------

using Scrape = std::map<std::string, double>;

bool ScrapeStats(KvClient& c, Scrape* out) {
  std::vector<rwd::serve::MetricSample> samples;
  if (!c.Stats2(&samples)) return false;
  out->clear();
  for (const auto& s : samples) (*out)[s.name] = s.value;
  return true;
}

double Value(const Scrape& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

/// Window delta of a STATS v2 histogram: (count, mean µs) from the
/// before/after `.count` and `.mean_us` samples.
std::pair<double, double> HistDelta(const Scrape& a, const Scrape& b,
                                    const std::string& h) {
  double c0 = Value(a, h + ".count"), c1 = Value(b, h + ".count");
  double s0 = c0 * Value(a, h + ".mean_us");
  double s1 = c1 * Value(b, h + ".mean_us");
  double dc = c1 - c0;
  return {dc, dc > 0 ? (s1 - s0) / dc : 0.0};
}

// --- load and read-back ----------------------------------------------------

/// Loads keys [1, kLoadKeys] through pipelined MPUTs on 4 connections.
bool Load(std::uint16_t port) {
  constexpr std::uint32_t kConns = 4;
  constexpr std::size_t kDepth = 4;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kConns; ++t) {
    threads.emplace_back([t, port, &ok] {
      KvClient c;
      if (!c.Connect(kHost, port, kRecvTimeoutMs)) {
        ok = false;
        return;
      }
      std::uint64_t batches = (kLoadKeys + kLoadBatch - 1) / kLoadBatch;
      for (std::uint64_t b = t; b < batches || c.pending() > 0;) {
        bool queued = false;
        for (; b < batches && c.pending() < kDepth; b += kConns) {
          std::vector<std::pair<std::uint64_t, std::string>> kvs;
          for (std::uint64_t k = b * kLoadBatch + 1;
               k <= std::min(kLoadKeys, (b + 1) * kLoadBatch); ++k) {
            kvs.emplace_back(k, EncodeValue(k, 0));
          }
          c.QueueMput(kvs);
          queued = true;
        }
        if (queued && !c.Flush()) {
          ok = false;
          return;
        }
        KvClient::Reply r;
        if (!c.ReadReply(&r) || r.status != Status::kOk) {
          std::fprintf(stderr, "rewindbench: load MPUT failed\n");
          ok = false;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

struct ReadBack {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
};

/// Scans the whole key space in order: every loaded key must be present
/// and intact, every acked insert present with its insert-time value.
ReadBack VerifyAll(KvClient& c, std::vector<std::uint64_t> acked) {
  ReadBack rb;
  std::sort(acked.begin(), acked.end());
  std::size_t next_acked = 0;
  std::uint64_t expect_loaded = 1;
  std::uint64_t from = 1;
  auto missing_acked_below = [&](std::uint64_t bound) {
    while (next_acked < acked.size() && acked[next_acked] < bound) {
      ++rb.failed;
      LogFailure("read-back", acked[next_acked], "acked insert missing");
      ++next_acked;
    }
  };
  for (;;) {
    std::vector<std::pair<std::uint64_t, std::string>> items;
    bool truncated = false;
    std::uint64_t next_key = 0;
    if (!c.Scan(from, rwd::serve::kMaxScanItems, &items, &truncated,
                &next_key)) {
      ++rb.failed;
      LogFailure("read-back", from, "scan failed");
      return rb;
    }
    for (const auto& kv : items) {
      std::uint64_t k = kv.first;
      std::uint64_t version = 0;
      ValueStatus vs = CheckValue(k, kv.second, &version);
      if (k <= kLoadKeys) {
        for (; expect_loaded < k; ++expect_loaded) {
          ++rb.checked;
          ++rb.failed;
          LogFailure("read-back", expect_loaded, "loaded key missing");
        }
        expect_loaded = k + 1;
        ++rb.checked;
        if (vs != ValueStatus::kOk) {
          ++rb.failed;
          LogFailure("read-back", k, ValueStatusName(vs));
        }
        continue;
      }
      missing_acked_below(k);
      bool is_acked = next_acked < acked.size() && acked[next_acked] == k;
      if (is_acked) {
        ++next_acked;
        ++rb.checked;
      }
      if (vs != ValueStatus::kOk || version != 0) {
        ++rb.failed;
        LogFailure("read-back", k,
                   vs != ValueStatus::kOk ? ValueStatusName(vs)
                                          : "insert overwritten");
      }
    }
    if (items.size() < rwd::serve::kMaxScanItems && !truncated) break;
    from = truncated ? next_key : items.back().first + 1;
  }
  for (; expect_loaded <= kLoadKeys; ++expect_loaded) {
    ++rb.checked;
    ++rb.failed;
    LogFailure("read-back", expect_loaded, "loaded key missing");
  }
  rb.checked += acked.size() - next_acked;
  missing_acked_below(~std::uint64_t{0});
  return rb;
}

void WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<Driver>>& drivers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "rewindbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id,parent,name,thread,start_ns,dur_ns\n");
  std::size_t n = 0;
  for (const auto& d : drivers) {
    for (const Span& s : d->spans) {
      std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%s,%u,%" PRIu64 ",%" PRIu64
                      "\n",
                   s.id, s.parent, kSpanNames[s.name], d->idx, s.start_ns,
                   s.dur_ns);
      ++n;
    }
  }
  std::fclose(f);
  std::fprintf(stderr, "rewindbench: wrote %zu client spans to %s\n", n,
               path.c_str());
}

// --- modes -----------------------------------------------------------------

int LoadMode(std::uint16_t port) {
  if (!Load(port)) return 1;
  std::printf("loaded %" PRIu64 "\n", kLoadKeys);
  std::fflush(stdout);
  return 0;
}

int RunMode(const Workload& w, std::uint16_t port, std::uint64_t seed,
            double seconds, bool trace, const std::string& spans_out) {
  if (!Load(port)) return 1;
  std::printf("loaded %" PRIu64 "\n", kLoadKeys);
  std::fflush(stdout);

  std::vector<std::unique_ptr<Driver>> drivers;
  for (std::uint32_t t = 0; t < w.threads; ++t) {
    drivers.push_back(std::make_unique<Driver>(w, seed, t));
    if (!drivers.back()->client.Connect(kHost, port, kRecvTimeoutMs)) {
      std::fprintf(stderr, "rewindbench: cannot connect to port %u\n", port);
      return 1;
    }
  }
  // Scrapes use thread 0's connection while it is idle, so the run never
  // opens more connections than it has threads.
  KvClient& admin = drivers[0]->client;
  Report report;
  Scrape before, after;
  WindowStats untraced{}, ws{};
  if (trace) {
    untraced = RunWindow(drivers, w, seconds, false, kWarmupNs);
    if (!drivers[0]->dead && !ScrapeStats(admin, &before)) {
      std::fprintf(stderr, "rewindbench: STATS v2 scrape failed\n");
    }
    ws = RunWindow(drivers, w, seconds, true, 0);
  } else {
    ws = RunWindow(drivers, w, seconds, false, kWarmupNs);
  }
  bool scraped = !drivers[0]->dead && ScrapeStats(admin, &after);
  if (!scraped) std::fprintf(stderr, "rewindbench: STATS v2 scrape failed\n");

  std::vector<std::uint64_t> acked;
  std::uint64_t attempted = 0, failed = 0;
  for (auto& d : drivers) {
    acked.insert(acked.end(), d->acked_inserts.begin(),
                 d->acked_inserts.end());
    attempted += d->attempted;
    failed += d->failed;
  }
  ReadBack rb;
  if (!drivers[0]->dead) {
    rb = VerifyAll(admin, acked);
  } else {
    rb.failed = 1;
  }
  report.Count(attempted + rb.checked, failed + rb.failed);
  std::fprintf(stderr,
               "rewindbench: %s seed=%" PRIu64 " window ops=%" PRIu64
               " attempted=%" PRIu64 " failed=%" PRIu64
               " read-back checked=%" PRIu64 " failed=%" PRIu64 "\n",
               w.name, seed, ws.ops, attempted, failed, rb.checked,
               rb.failed);

  double live_keys = Value(after, "server.keys");
  double heap_used = Value(after, "server.heap_used_bytes");
  double hwm = Value(after, "server.heap_high_watermark");
  report.Add("ops_per_s", ws.ops_per_s, "ops/s");
  report.Add("op_p50_us", ws.mix_p50_us, "us");
  report.Add("op_p90_us", ws.mix_p90_us, "us");
  report.Add("op_p99_us", ws.all.p99_us, "us");
  report.Add("op_samples", static_cast<double>(ws.all.count), "count");
  report.Add("space_amp",
             Ratio(heap_used, live_keys * static_cast<double>(kValueSize)),
             "ratio");
  report.Add("heap.headroom_frac",
             1.0 - hwm / static_cast<double>(kArenaBytes), "ratio");
  double attempted_all = static_cast<double>(attempted + rb.checked);
  report.Add("error_frac",
             Ratio(static_cast<double>(failed + rb.failed), attempted_all),
             "ratio");
  if (trace) {
    static const char* const kClsNames[] = {"read", "write", "scan"};
    for (int c = 0; c < kClasses; ++c) {
      std::string n = kClsNames[c];
      report.Add(n + "_p50_us", ws.cls[c].p50_us, "us");
      report.Add(n + "_p99_us", ws.cls[c].p99_us, "us");
      report.Add(n + "_samples", static_cast<double>(ws.cls[c].count),
                 "count");
    }
    report.Add("scan_items_per_s", ws.scan_items_per_s, "items/s");
    report.Add("trace.overhead_frac",
               Ratio(untraced.ops_per_s - ws.ops_per_s, untraced.ops_per_s),
               "ratio");
    report.Add("client.send_lag_p50_us", ws.lag_p50_us, "us");
    report.Add("client.send_lag_p99_us", ws.lag_p99_us, "us");
    report.Add("client.wait_frac", ws.wait_frac, "ratio");

    // Server per-layer numbers: deltas of STATS v2 across the traced
    // window only (cumulative percentiles would include the load phase).
    double wall_us = ws.seconds * 1e6;
    auto mean = [&](const char* h) {
      return HistDelta(before, after, h).second;
    };
    double get_mean = HistDelta(before, after, "server.op.get").second;
    auto [puts, put_mean] = HistDelta(before, after, "server.op.put");
    auto [mputs, mput_mean] = HistDelta(before, after, "server.op.mput");
    auto [commits, commit_mean] = HistDelta(before, after, "batcher.commit");
    auto [ckpts, ckpt_mean] = HistDelta(before, after, "checkpoint.duration");
    report.Add("server.get.mean_us", get_mean, "us");
    report.Add("server.scan.mean_us", mean("server.op.scan"), "us");
    report.Add("server.put.mean_us", put_mean, "us");
    report.Add("server.mput.mean_us", mput_mean, "us");
    double server_write_mean =
        Ratio(puts * put_mean + mputs * mput_mean, puts + mputs);
    report.Add("server.read_residual_us",
               ws.cls[kClsRead].count ? ws.cls[kClsRead].mean_us - get_mean
                                      : 0.0,
               "us");
    report.Add("server.write_residual_us",
               ws.cls[kClsWrite].count
                   ? ws.cls[kClsWrite].mean_us - server_write_mean
                   : 0.0,
               "us");
    double batches =
        Value(after, "server.batches") - Value(before, "server.batches");
    double batched = Value(after, "server.batched_writes") -
                     Value(before, "server.batched_writes");
    report.Add("batcher.writes_per_batch", Ratio(batched, batches), "count");
    report.Add("batcher.busy_frac", Ratio(commits * commit_mean, wall_us),
               "ratio");
    report.Add("batcher.commit.mean_us", commit_mean, "us");
    report.Add("batcher.window.mean_us", mean("batcher.window"), "us");
    for (const char* phase :
         {"prepare", "decision", "end", "fence", "fast_commit"}) {
      report.Add(std::string("txn.") + phase + ".mean_us",
                 mean((std::string("txn.") + phase).c_str()), "us");
    }
    report.Add("kv.parallel_apply_frac",
               Ratio(Value(after, "kv.parallel_applies") -
                         Value(before, "kv.parallel_applies"),
                     batches),
               "ratio");
    report.Add("checkpoint.count", ckpts, "count");
    report.Add("checkpoint.mean_us", ckpt_mean, "us");
    double opt = Value(after, "kv.optimistic_hits") -
                 Value(before, "kv.optimistic_hits");
    double latched = Value(after, "kv.read_latch_acquires") -
                     Value(before, "kv.read_latch_acquires");
    report.Add("kv.optimistic_hit_frac", Ratio(opt, opt + latched), "ratio");
    report.Add("heap.used_bytes", heap_used, "bytes");
    report.Add("heap.hwm_bytes", hwm, "bytes");
    if (!spans_out.empty()) WriteSpans(spans_out, drivers);
  }
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}

/// Injects one fault of each kind the checker claims to catch and checks
/// that each is reported, and that nothing else is.
int SelfTest(std::uint16_t port) {
  int bad = 0;
  auto expect = [&bad](bool cond, const char* what) {
    std::fprintf(stderr, "selftest: %s: %s\n", what, cond ? "ok" : "MISSED");
    if (!cond) ++bad;
  };
  std::string good = EncodeValue(42, 7);
  std::string torn = good;
  torn[60] ^= 0x10;
  std::string foreign = EncodeValue(43, 7);
  std::uint64_t version = 0;
  expect(CheckValue(42, good, &version) == ValueStatus::kOk && version == 7,
         "intact value accepted");
  expect(CheckValue(42, torn) == ValueStatus::kTorn, "torn value caught");
  expect(CheckValue(42, foreign) == ValueStatus::kForeign,
         "foreign value caught");
  expect(CheckValue(42, good.substr(1)) == ValueStatus::kWrongSize,
         "short value caught");

  if (!Load(port)) return 1;
  KvClient c;
  if (!c.Connect(kHost, port, kRecvTimeoutMs)) return 1;
  const std::uint64_t kTornKey = 77, kForeignKey = 999, kGoneKey = 4242;
  std::string torn77 = EncodeValue(kTornKey, 0);
  torn77[50] ^= 0x01;
  bool injected = c.Put(kTornKey, torn77) &&
                  c.Put(kForeignKey, EncodeValue(kForeignKey + 1, 0)) &&
                  c.Delete(kGoneKey) &&
                  c.Put(kLoadKeys + 1, EncodeValue(kLoadKeys + 1, 0));
  expect(injected, "faults injected");

  // The served-op checker: GETs of the faulty keys must each fail.
  const Workload& w = Workloads().front();
  Driver d(w, 1, 0);
  if (!d.client.Connect(kHost, port, kRecvTimeoutMs)) return 1;
  Window win{0, 0, 0, false};
  for (std::uint64_t k : {kTornKey, kForeignKey, kGoneKey, std::uint64_t{1}}) {
    Op op;
    op.kind = OpKind::kGet;
    op.key = k;
    Queue(d, op, NowNs(), win);
  }
  Op scan;
  scan.kind = OpKind::kScan;
  scan.key = kGoneKey - 5;
  scan.len = 10;
  Queue(d, scan, NowNs(), win);
  Flush(d, 5, win);
  Drain(d, win);
  expect(d.attempted == 5 && d.failed == 4,
         "served GET/SCAN checker flags torn, foreign, missing and short");

  // The read-back: the same three faults plus an acked insert that was
  // never written (kLoadKeys + 2); the real insert (kLoadKeys + 1) passes.
  ReadBack rb = VerifyAll(c, {kLoadKeys + 1, kLoadKeys + 2});
  expect(rb.failed == 4, "read-back flags torn, foreign, missing key and "
                         "missing acked insert");
  expect(rb.checked == kLoadKeys + 2, "read-back checks every key once");
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rwdbench

int main(int argc, char** argv) {
  using namespace rwdbench;
  std::string mode = argc > 1 ? argv[1] : "";
  auto port = static_cast<std::uint16_t>(
      std::strtoul(Flag(argc, argv, "port", "0").c_str(), nullptr, 10));
  std::uint64_t seed =
      std::strtoull(Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  if (mode == "load") return LoadMode(port);
  if (mode == "selftest") return SelfTest(port);
  const Workload* w = FindWorkload(Flag(argc, argv, "workload"));
  if (w == nullptr || (mode != "run" && mode != "replay")) {
    std::fprintf(stderr,
                 "usage: rewindbench load|run|replay|selftest --port=P "
                 "--workload=NAME --seed=N --seconds=S [--trace=1 "
                 "--spans-out=FILE]\n");
    return 2;
  }
  if (mode == "replay") return RunReplay(*w, seed);
  // Sleep precisely: the open-loop schedule relies on timed waits.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  double seconds = std::strtod(Flag(argc, argv, "seconds", "10").c_str(),
                               nullptr);
  bool trace = Flag(argc, argv, "trace", "0") == "1";
  return RunMode(*w, port, seed, seconds, trace,
                 Flag(argc, argv, "spans-out"));
}
