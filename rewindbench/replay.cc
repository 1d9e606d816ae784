// RewindBench replay: the per-layer view of the kv, txn, log and nvm layers
// that a served run cannot see from outside the process. It replays a
// workload's seeded op stream single-threaded against an in-process
// KvStore configured like kv_server's (BenchConfig(kBatch, kOne, kNoForce,
// 512), 4 shards, no daemons), grouping writes into ApplyBatch calls of
// the workload's fixed batch size, and reads the NVM, transaction-manager,
// StoreTxn and heap counters around each call. The op count is fixed, so
// count metrics (records, fences, flushes, NVM writes per write) repeat
// exactly for one seed.
#include <time.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "report.h"
#include "src/kv/kv_store.h"
#include "workload.h"

namespace rwdbench {
namespace {

std::uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The counters read around every ApplyBatch call.
struct Counters {
  std::uint64_t records = 0;
  std::uint64_t fences = 0;
  std::uint64_t flushes = 0;
  std::uint64_t nvm_writes = 0;
  std::uint64_t two_phase = 0;
  std::uint64_t fast = 0;
  std::uint64_t heap = 0;  ///< live heap bytes (not summed)

  static Counters Read(rwd::KvStore& store) {
    Counters c;
    rwd::Runtime& rt = store.runtime();
    for (std::size_t p = 0; p < rt.partitions(); ++p) {
      c.records += rt.tm(p).stats().records_logged;
    }
    const rwd::NvmStats& nvm = rt.nvm().stats();
    c.fences = nvm.fences.load();
    c.flushes = nvm.flushes.load();
    c.nvm_writes = nvm.nvm_writes.load();
    c.two_phase = store.store_txn().two_phase_commits();
    c.fast = store.store_txn().fast_commits();
    c.heap = store.heap_live_bytes();
    return c;
  }
  void AddDelta(const Counters& a, const Counters& b) {
    records += b.records - a.records;
    fences += b.fences - a.fences;
    flushes += b.flushes - a.flushes;
    nvm_writes += b.nvm_writes - a.nvm_writes;
    two_phase += b.two_phase - a.two_phase;
    fast += b.fast - a.fast;
  }
};

double Per(double num, std::uint64_t den) {
  return den ? num / static_cast<double>(den) : 0.0;
}

}  // namespace

int RunReplay(const Workload& w, std::uint64_t seed) {
  rwd::KvConfig config;
  config.rewind = rwd::BenchConfig(rwd::LogImpl::kBatch, rwd::Layers::kOne,
                                   rwd::Policy::kNoForce, 512);
  config.shards = 4;
  config.checkpoint_period_ms = 0;
  rwd::KvStore store(config);

  // Load as the server does: one MPUT of kLoadBatch keys per ApplyBatch.
  std::vector<rwd::KvWriteOp> batch;
  auto put = [&batch](std::uint64_t key, std::uint64_t version) {
    rwd::KvWriteOp op;
    op.kind = rwd::KvWriteOp::Kind::kPut;
    op.key = key;
    op.value = EncodeValue(key, version);
    batch.push_back(std::move(op));
  };
  std::uint64_t load_start = NowNs();
  for (std::uint64_t k = 1; k <= kLoadKeys; ++k) {
    put(k, 0);
    if (batch.size() == kLoadBatch || k == kLoadKeys) {
      store.ApplyBatch(batch);
      batch.clear();
    }
  }
  std::fprintf(stderr,
               "rewindbench replay: loaded %" PRIu64 " keys in %.3f s\n",
               kLoadKeys, static_cast<double>(NowNs() - load_start) / 1e9);

  std::vector<OpStream> streams;
  for (std::uint32_t t = 0; t < w.threads; ++t) {
    streams.emplace_back(w, seed, t);
  }
  std::vector<std::uint64_t> get_ns, apply_ns, scan_ns;
  std::uint64_t scan_total_ns = 0, scan_items = 0;
  std::uint64_t writes = 0, inserts = 0, failed = 0, attempted = 0;
  std::uint64_t batch_inserts = 0;
  std::int64_t insert_heap_bytes = 0;  // frees can outweigh allocations
  Counters sum;
  auto fail = [&failed](const char* what, std::uint64_t key,
                        const std::string& why) {
    if (++failed <= 20) {
      std::fprintf(stderr, "rewindbench replay: FAILED %s key=%" PRIu64
                   ": %s\n", what, key, why.c_str());
    }
  };
  auto apply = [&] {
    if (batch.empty()) return;
    Counters a = Counters::Read(store);
    std::uint64_t t0 = NowNs();
    store.ApplyBatch(batch);
    std::uint64_t t1 = NowNs();
    Counters b = Counters::Read(store);
    apply_ns.push_back(t1 - t0);
    sum.AddDelta(a, b);
    if (batch_inserts != 0) {
      insert_heap_bytes += static_cast<std::int64_t>(b.heap) -
                           static_cast<std::int64_t>(a.heap);
    }
    for (const rwd::KvWriteOp& op : batch) {
      ++attempted;
      if (!op.applied) fail("apply", op.key, "write not applied");
    }
    batch.clear();
    batch_inserts = 0;
  };

  std::string value;
  std::vector<std::pair<std::uint64_t, std::string>> items;
  for (std::uint64_t i = 0; i < w.replay_ops; ++i) {
    Op op = streams[i % streams.size()].Next();
    switch (op.kind) {
      case OpKind::kGet: {
        std::uint64_t t0 = NowNs();
        bool found = store.Get(op.key, &value);
        get_ns.push_back(NowNs() - t0);
        ++attempted;
        ValueStatus vs = found ? CheckValue(op.key, value) : ValueStatus::kOk;
        if (!found) fail("get", op.key, "loaded key not found");
        if (vs != ValueStatus::kOk) fail("get", op.key, ValueStatusName(vs));
        break;
      }
      case OpKind::kUpdate:
      case OpKind::kInsert:
        put(op.key, op.version);
        ++writes;
        if (op.kind == OpKind::kInsert) {
          ++inserts;
          ++batch_inserts;
        }
        break;
      case OpKind::kMput:
        for (std::uint64_t k : op.keys) put(k, 0);
        writes += op.keys.size();
        inserts += op.keys.size();
        batch_inserts += op.keys.size();
        break;
      case OpKind::kScan: {
        items.clear();
        std::uint64_t t0 = NowNs();
        store.Scan(op.key, op.len,
                   [&items](std::uint64_t k, std::string_view v) {
                     items.emplace_back(k, std::string(v));
                     return true;
                   });
        std::uint64_t dur = NowNs() - t0;
        scan_ns.push_back(dur);
        scan_total_ns += dur;
        scan_items += items.size();
        ++attempted;
        std::string why;
        if (!CheckScan(op, items, &why)) fail("scan", op.key, why);
        break;
      }
    }
    if (batch.size() >= w.replay_batch) apply();
  }
  apply();

  const rwd::NvmConfig& nvm = config.rewind.nvm;
  Report report;
  report.Count(attempted, failed);
  report.Add("kv.get.p50_ns", Percentile(get_ns, 50), "ns");
  report.Add("kv.get.p99_ns", Percentile(get_ns, 99), "ns");
  report.Add("kv.apply_batch.p50_us", Percentile(apply_ns, 50) / 1e3, "us");
  report.Add("kv.apply_batch.p99_us", Percentile(apply_ns, 99) / 1e3, "us");
  report.Add("kv.scan.p50_us", Percentile(scan_ns, 50) / 1e3, "us");
  report.Add("kv.scan.ns_per_item",
             Per(static_cast<double>(scan_total_ns), scan_items), "ns");
  report.Add("log.records_per_write",
             Per(static_cast<double>(sum.records), writes), "count");
  report.Add("nvm.fences_per_write",
             Per(static_cast<double>(sum.fences), writes), "count");
  report.Add("nvm.flushes_per_write",
             Per(static_cast<double>(sum.flushes), writes), "count");
  report.Add("nvm.writes_per_write",
             Per(static_cast<double>(sum.nvm_writes), writes), "count");
  report.Add("nvm.emulated_ns_per_write",
             Per(static_cast<double>(sum.nvm_writes) * nvm.write_latency_ns +
                     static_cast<double>(sum.fences) * nvm.fence_latency_ns,
                 writes),
             "ns");
  report.Add("txn.two_phase_frac",
             Per(static_cast<double>(sum.two_phase), sum.two_phase + sum.fast),
             "ratio");
  report.Add("heap.bytes_per_insert",
             Per(static_cast<double>(insert_heap_bytes), inserts), "bytes");
  report.Add("replay.writes", static_cast<double>(writes), "count");
  report.Add("replay.apply_batches", static_cast<double>(apply_ns.size()),
             "count");
  report.Print();
  return failed == 0 ? 0 : 1;
}

}  // namespace rwdbench
