// Service benchmark: concurrent query throughput of the QueryBroker and
// the ShardRouter, emitting BENCH_service.json.
//
// The broker answers every query on the caller's thread by a direct
// index call (docs/service_architecture.md), so client threads are the
// unit of concurrency. Two query workloads:
//   knn    — k nearest neighbors per query;
//   radius — closed-ball search.
//
// Scenarios:
//   steady      — per client count, single-query calls (answered on
//     the caller's thread) and --bulk requests (spread over the pool
//     once a bulk holds more than 8 queries).
//   rebuild     — a writer thread continuously rebuilds (build, publish
//     by atomic snapshot handoff, sleep gap_ms, repeat) while clients
//     query; queries never wait on the writer.
//   live_update — sustained single-point inserts/removes while clients
//     query, against a rebuild-per-batch design behind a reader/writer
//     gate; every acknowledged update is probed for staleness.
//   sharded     — S shared-nothing brokers behind the separator shard
//     function, per shard count.
//   cold_start  — time to first answer, fresh build vs snapshot load.
//
// Request latency is recorded into the shared metrics::Histogram (the
// same one the broker uses internally), and every scenario asserts its
// books at quiescence (submitted == bench count, punted == submitted,
// per-op answered == submitted). Pass --trace out.json to capture
// Chrome-trace spans of queries and snapshot builds (open in
// chrome://tracing or Perfetto). The first JSON row stamps the host's
// core count and the build type; per-layer costs (index, inline call,
// router) are measured by perfbench's traced ladder, not here.
#include "experiment_common.hpp"

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>

#include "core/config.hpp"
#include "service/query_broker.hpp"
#include "service/shard_router.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

#ifndef SEPDC_BUILD_TYPE
#define SEPDC_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sepdc;
using Pt = geo::Point<2>;

// Write-preferring reader/writer gate for the live_update baseline: a
// plain std::shared_mutex lets a stream of readers starve the rebuild
// thread indefinitely (glibc rwlocks prefer readers), which would
// benchmark a service that silently never reindexes. This gate is what a
// lock-based design actually deploys.
class RwGate {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void unlock_shared() {
    std::lock_guard<std::mutex> l(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void lock() {
    std::unique_lock<std::mutex> l(mu_);
    ++writers_waiting_;
    cv_.wait(l, [&] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void unlock() {
    std::lock_guard<std::mutex> l(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

enum class Kind { kKnn, kRadius };

struct CellResult {
  double qps = 0.0;
  double p50_request_us = 0.0;
  double p99_request_us = 0.0;
  std::size_t queries = 0;
  std::size_t request_queries = 1;  // queries per client submission
  std::size_t rebuilds = 0;
  service::ServiceStatsSnapshot stats{};
};

struct CellParams {
  std::span<const Pt> points;
  std::span<const Pt> queries;
  Kind kind = Kind::kKnn;
  std::size_t k = 8;
  double radius = 0.01;
  unsigned clients = 1;
  bool rebuild = false;
  double seconds = 0.6;
  std::chrono::milliseconds gap{2};
  std::size_t bulk = 64;
  std::uint64_t seed = 9;
  metrics::TraceRecorder* trace = nullptr;
};

void summarize(CellResult& r, double elapsed, std::size_t completed,
               const metrics::Histogram& latency) {
  r.qps = elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
  r.queries = completed;
  auto snap = latency.snapshot();
  r.p50_request_us = snap.p50_us();
  r.p99_request_us = snap.p99_us();
}

// At quiescence the broker's accounting must reconcile exactly with the
// bench's own count and with the histograms, per op type (the invariants
// docs/observability.md documents); a violation is a counting bug.
// `expected` is the bench-side count of every query it submitted —
// including staleness probes, not just the client loops.
void reconcile_broker_stats(const service::ServiceStatsSnapshot& s,
                            std::size_t expected) {
  SEPDC_CHECK_MSG(s.submitted == expected,
                  "broker submitted != bench submitted");
  SEPDC_CHECK_MSG(s.punted == s.submitted && s.batched == 0 &&
                      s.fast_lane == 0,
                  "a query was not answered by the direct path");
  SEPDC_CHECK_MSG(s.punt_latency.count() == s.punted,
                  "punt_latency histogram does not reconcile with punted");
  SEPDC_CHECK_MSG(s.knn_submitted + s.radius_submitted == s.submitted,
                  "per-type submissions do not reconcile with submitted");
  SEPDC_CHECK_MSG(s.knn_answered == s.knn_submitted,
                  "knn answered != knn submitted");
  SEPDC_CHECK_MSG(s.radius_answered == s.radius_submitted,
                  "radius answered != radius submitted");
  SEPDC_CHECK_MSG(s.updates_submitted == s.inserts + s.removes,
                  "updates_submitted != inserts + removes");
  SEPDC_CHECK_MSG(s.update_apply.count() == s.updates_submitted,
                  "update_apply histogram does not reconcile with updates");
  SEPDC_CHECK_MSG(s.compaction_build.count() == s.compactions,
                  "compaction_build histogram does not reconcile with "
                  "compactions");
}

CellResult run_broker(const CellParams& p, par::ThreadPool& pool) {
  service::BrokerConfig cfg;
  cfg.index.seed = p.seed;
  cfg.trace = p.trace;
  service::QueryBroker<2> broker(p.points, cfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;  // ns per request, shared by all clients
  CellResult result;
  result.request_queries = p.bulk;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        if (len == 1) {
          if (p.kind == Kind::kKnn) {
            auto row = broker.knn(p.queries[qi], p.k);
            (void)row;
          } else {
            auto row = broker.radius(p.queries[qi], p.radius);
            (void)row;
          }
        } else if (p.kind == Kind::kKnn) {
          auto rows = broker.bulk_knn(p.queries.subspan(qi, len), p.k);
          (void)rows;
        } else {
          auto rows =
              broker.bulk_radius(p.queries.subspan(qi, len), p.radius);
          (void)rows;
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }
  std::thread writer;
  if (p.rebuild) {
    writer = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        broker.rebuild(p.points);  // off to the side; queries unblocked
        ++result.rebuilds;
        std::this_thread::sleep_for(p.gap);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Counters are read only after every client has joined (and the wall
  // clock stops with them): reading them mid-flight undercounts by the
  // requests still draining and then misreconciles against the broker's
  // own counters.
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  if (writer.joinable()) writer.join();

  summarize(result, elapsed, done, latency);
  result.stats = broker.stats();
  reconcile_broker_stats(result.stats, done);
  return result;
}

struct Record {
  std::string workload;
  std::string scenario;
  std::string mode;
  unsigned clients = 0;
  CellResult cell;
};

// --- live_update: sustained mutations while clients query ---
//
// The delta-tier acceptance number (docs/updates.md): under a sustained
// stream of single-point inserts/removes, the broker's request p99 must
// sit >= 10x below the design you get without a delta tier — apply a
// batch of updates by rebuilding the whole index behind the write gate —
// with zero stale answers for acknowledged updates. Every update is
// followed by a radius-0 probe at the mutated coordinate: an insert that
// was acknowledged must be visible, a remove must never resurrect. The
// probe failures are counted and checked, not sampled.

struct LiveUpdateResult {
  double qps = 0.0;
  double p50_request_us = 0.0;
  double p99_request_us = 0.0;
  std::size_t queries = 0;     // client queries completed
  std::size_t updates = 0;     // single-point mutations applied
  std::size_t stale = 0;       // acked updates a probe failed to observe
  std::size_t rebuilds = 0;    // full index rebuilds (baseline)
  std::size_t compactions = 0;  // delta merges installed (broker)
  service::ServiceStatsSnapshot stats{};  // broker only
};

// Rebuild-per-batch baseline: the service keeps one mutable point set
// behind the write-preferring gate; applying a batch of updates means
// reconstructing the entire index in place while every reader waits.
LiveUpdateResult run_live_update_baseline(const CellParams& p,
                                          par::ThreadPool& pool) {
  core::SeparatorIndexConfig icfg;
  icfg.seed = p.seed;
  std::vector<Pt> pts(p.points.begin(), p.points.end());
  std::optional<core::SeparatorIndex<2>> index(std::in_place, pts, icfg,
                                               pool);
  RwGate gate;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;
  LiveUpdateResult result;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        // Same request granularity as the broker clients (a bulk of
        // p.bulk queries per request) so the p99s are comparable; the
        // gate is taken per query, the pattern a per-query service
        // actually deploys, so the writer can interleave.
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        for (std::size_t i = 0; i < len; ++i) {
          gate.lock_shared();
          std::size_t hits = 0;
          index->for_each_in_ball(p.queries[qi + i], p.radius,
                                  [&](std::uint32_t, double) { ++hits; });
          gate.unlock_shared();
          (void)hits;
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }
  std::thread mutator([&] {
    Rng rng(p.seed + 101);
    constexpr std::size_t kBatch = 16;  // updates amortized per rebuild
    while (!stop.load(std::memory_order_relaxed)) {
      gate.lock();
      Pt last{};
      for (std::size_t i = 0; i < kBatch; ++i) {
        // Replace a random point with a fresh one: a remove + an insert.
        std::size_t victim = rng.below(pts.size());
        last = {{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
        pts[victim] = last;
        result.updates += 2;
      }
      core::SeparatorIndexConfig c = icfg;
      c.seed = rng.next();
      index.emplace(pts, c, pool);
      ++result.rebuilds;
      // Acknowledged == rebuilt here; the probe must see the new point.
      std::size_t seen = 0;
      index->for_each_in_ball(last, 0.0,
                              [&](std::uint32_t, double) { ++seen; });
      if (seen == 0) ++result.stale;
      gate.unlock();
      // No pacing sleep: the scenario is a *sustained* mutation stream,
      // and this design's only way to apply it is rebuild after rebuild.
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  mutator.join();

  result.qps = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  result.queries = done;
  auto snap = latency.snapshot();
  result.p50_request_us = snap.p50_us();
  result.p99_request_us = snap.p99_us();
  return result;
}

// Delta-tier broker: every mutation lands in the live tier immediately;
// compaction (threshold-triggered, built off to the side, published by
// snapshot handoff) never blocks a reader.
LiveUpdateResult run_live_update_broker(const CellParams& p,
                                        par::ThreadPool& pool) {
  service::BrokerConfig cfg;
  cfg.index.seed = p.seed;
  cfg.trace = p.trace;
  service::QueryBroker<2> broker(p.points, cfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;
  LiveUpdateResult result;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        auto rows = broker.bulk_radius(p.queries.subspan(qi, len), p.radius);
        (void)rows;
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }
  std::size_t probe_queries = 0;
  std::thread mutator([&] {
    Rng rng(p.seed + 101);
    std::uint32_t next_id = static_cast<std::uint32_t>(p.points.size());
    std::vector<std::pair<std::uint32_t, Pt>> added;
    while (!stop.load(std::memory_order_relaxed)) {
      Pt pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
      std::uint32_t id = next_id++;
      broker.insert(id, pt);
      ++result.updates;
      added.emplace_back(id, pt);
      // The insert returned, so it is acknowledged: a closed-ball probe
      // at its exact coordinate must report it (kernel bit-identity
      // makes dist2 == 0.0 exact, docs/kernels.md).
      auto hits = broker.radius(pt, 0.0);
      ++probe_queries;
      bool seen = false;
      for (const auto& [hid, d2] : hits) seen |= hid == id;
      if (!seen) ++result.stale;
      // Let the live set outgrow the compaction threshold (256 by
      // default) so the threshold-triggered background merge actually
      // runs inside the measurement window; a remove of an id whose add
      // is still in the active segment just cancels the add, so trimming
      // too early would pin the pending count below the threshold.
      if (added.size() > 512) {
        std::size_t pick = rng.below(added.size());
        auto [rid, rpt] = added[pick];
        added[pick] = added.back();
        added.pop_back();
        broker.remove(rid);
        ++result.updates;
        auto post = broker.radius(rpt, 0.0);
        ++probe_queries;
        for (const auto& [hid, d2] : post)
          if (hid == rid) ++result.stale;  // resurrected tombstone
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  mutator.join();
  broker.drain_rebuilds();

  result.qps = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  result.queries = done;
  auto snap = latency.snapshot();
  result.p50_request_us = snap.p50_us();
  result.p99_request_us = snap.p99_us();
  result.stats = broker.stats();
  result.compactions = result.stats.compactions;
  reconcile_broker_stats(result.stats, done + probe_queries);
  SEPDC_CHECK_MSG(result.stats.updates_submitted == result.updates,
                  "live_update: broker update count != bench update count");
  SEPDC_CHECK_MSG(result.stale == 0,
                  "live_update: stale answer for an acknowledged update");
  return result;
}

// --- sharded: scale past one broker with separator-based sharding ---
//
// The ShardRouter acceptance number (docs/sharding.md): S shared-nothing
// brokers behind the separator-sphere shard function must scale aggregate
// throughput near-linearly — target >= 3x at 4 shards vs 1 — because the
// sphere-separator intersection bound keeps the fraction of queries that
// must visit more than their home shard (boundary_fanout) a vanishing
// fraction of traffic. Same client loop as run_broker, same bulk
// requests, so S=1 isolates the router's own overhead.

struct ShardedResult {
  unsigned shards = 0;
  double qps = 0.0;
  double p50_request_us = 0.0;
  double p99_request_us = 0.0;
  std::size_t queries = 0;
  double boundary_fanout = 0.0;
  std::uint64_t fanout_queries = 0;
  std::uint64_t shard_visits = 0;
  std::uint64_t punted = 0;
};

ShardedResult run_sharded_cell(const CellParams& p, par::ThreadPool& pool,
                               unsigned shards) {
  service::ShardRouterConfig cfg;
  cfg.shards = shards;
  cfg.broker.index.seed = p.seed;
  cfg.broker.trace = p.trace;
  service::ShardRouter<2> router(p.points, cfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;  // ns per request, shared by all clients
  ShardedResult result;
  result.shards = shards;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        if (p.kind == Kind::kKnn) {
          auto rows = router.bulk_knn(p.queries.subspan(qi, len), p.k);
          (void)rows;
        } else {
          auto rows =
              router.bulk_radius(p.queries.subspan(qi, len), p.radius);
          (void)rows;
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Read counters only after the clients have joined — see run_broker.
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);

  result.qps = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  result.queries = done;
  auto snap = latency.snapshot();
  result.p50_request_us = snap.p50_us();
  result.p99_request_us = snap.p99_us();

  // Router books must balance at quiescence: every bench query was
  // accepted (nothing shed at these rates), every accepted query visited
  // at least its home shard, and the per-shard brokers answered exactly
  // what the router scattered to them.
  auto rs = router.stats();
  SEPDC_CHECK_MSG(rs.submitted == done,
                  "sharded: router submitted != bench submitted");
  SEPDC_CHECK_MSG(rs.shed == 0, "sharded: unexpected shed");
  SEPDC_CHECK_MSG(rs.fanout_queries <= rs.submitted,
                  "sharded: fanout_queries exceeds submitted");
  SEPDC_CHECK_MSG(rs.shard_visits >= rs.submitted,
                  "sharded: shard_visits below submitted");
  auto agg = router.aggregated_stats();
  SEPDC_CHECK_MSG(agg.knn_answered == agg.knn_submitted,
                  "sharded: shard knn answered != submitted");
  SEPDC_CHECK_MSG(agg.radius_answered == agg.radius_submitted,
                  "sharded: shard radius answered != submitted");
  SEPDC_CHECK_MSG(agg.submitted == rs.shard_visits,
                  "sharded: shard submissions != router visits");
  result.boundary_fanout = rs.boundary_fanout;
  result.fanout_queries = rs.fanout_queries;
  result.shard_visits = rs.shard_visits;
  result.punted = agg.punted;
  return result;
}

}  // namespace
int main(int argc, char** argv) {
  using namespace sepdc;
  Cli cli;
  cli.flag("n", "20000", "indexed points")
      .flag("queries", "8192", "distinct query points (cycled)")
      .flag("k", "8", "neighbors per knn query")
      .flag("radius", "0.01", "ball radius for radius queries")
      .flag("bulk", "64", "queries per client bulk request")
      .flag("seconds", "0.6", "measurement window per cell")
      .flag("gap_ms", "2", "writer sleep between rebuilds")
      .flag("clients", "1,2,4,8", "client thread counts")
      .flag("seed", "9", "random seed")
      .flag("trace", "",
            "write Chrome-trace JSON of broker phase spans (empty to "
            "disable; open in chrome://tracing or Perfetto)")
      .flag("only", "",
            "run a single scenario (steady|rebuild|live_update|"
            "cold_start|sharded); empty runs everything")
      .flag("shards", "1,2,4", "shard counts for the sharded scenario")
      .flag("json", "BENCH_service.json",
            "machine-readable results file (empty to disable)");
  if (!cli.parse(argc, argv)) return 0;
  bench::banner(
      "SERVICE — concurrent query serving",
      "every query is answered on the caller's thread by a direct index "
      "call; snapshot handoff sustains throughput while the index is "
      "rebuilt, and the delta tier absorbs live updates");

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto nq = static_cast<std::size_t>(cli.get_int("queries"));

  if (cli.get_int("k") < 1)
    throw core::ConfigError("k", "k must be at least 1");

  CellParams base;
  base.k = static_cast<std::size_t>(cli.get_int("k"));
  base.radius = cli.get_double("radius");
  base.bulk = static_cast<std::size_t>(cli.get_int("bulk"));
  base.seconds = cli.get_double("seconds");
  base.gap = std::chrono::milliseconds(cli.get_int("gap_ms"));
  base.seed = rng.next();

  auto points = workload::uniform_cube<2>(n, rng);
  std::vector<Pt> queries(nq);
  for (auto& q : queries)
    q = {{rng.uniform(-0.05, 1.05), rng.uniform(-0.05, 1.05)}};
  base.points = std::span<const Pt>(points);
  base.queries = std::span<const Pt>(queries);

  auto& pool = par::ThreadPool::global();
  std::vector<Record> records;
  Table table({"workload", "scenario", "mode", "clients", "req", "qps",
               "p50 us", "p99 us", "rebuilds", "ratio"});

  unsigned top_clients = 0;
  for (std::int64_t clients : cli.get_int_list("clients"))
    top_clients = std::max(top_clients, static_cast<unsigned>(clients));

  std::optional<metrics::TraceRecorder> trace;
  if (!cli.get("trace").empty()) trace.emplace();

  // --only gates whole scenarios so CI can smoke-run one of them in
  // seconds, not minutes.
  const std::string only = cli.get("only");
  auto enabled = [&](const char* scenario) {
    return only.empty() || only == scenario;
  };

  for (Kind kind : {Kind::kKnn, Kind::kRadius}) {
    const std::string workload = kind == Kind::kKnn ? "knn" : "radius";
    for (const char* scenario : {"steady", "rebuild"}) {
      if (!enabled(scenario)) continue;
      const bool rebuild = std::string(scenario) == "rebuild";
      // steady also runs single-query calls, so both sides of the
      // broker's inline/spread split are measured.
      const bool single_too = !rebuild && base.bulk != 1;
      for (std::size_t req : {std::size_t{1}, base.bulk}) {
        if (req == 1 && !single_too) continue;
        for (std::int64_t clients : cli.get_int_list("clients")) {
          CellParams p = base;
          p.kind = kind;
          p.clients = static_cast<unsigned>(clients);
          p.rebuild = rebuild;
          p.bulk = req;
          p.trace = trace ? &*trace : nullptr;
          CellResult broker = run_broker(p, pool);
          records.push_back({workload, scenario, "broker", p.clients, broker});
          table.new_row()
              .cell(workload)
              .cell(scenario)
              .cell("broker")
              .cell(p.clients)
              .cell(req)
              .cell(broker.qps, 0)
              .cell(broker.p50_request_us, 1)
              .cell(broker.p99_request_us, 1)
              .cell(broker.rebuilds)
              .cell("-");
        }
      }
    }
  }
  // live_update runs on the radius workload (the latency-sensitive
  // regime): broker delta tier vs rebuild-per-batch. The "ratio" column
  // reports baseline request p99 over broker request p99. The target is
  // >= 10x, but the ratio does not score it yet: the baseline's mutator
  // is unpaced and starves its own readers (see
  // run_live_update_baseline), so the JSON summary flags the row
  // instead of stating the target. Half the top client count: the cell
  // measures mutation-induced tail latency, so the readers must not
  // saturate the machine by themselves (at full saturation both designs
  // just measure CPU contention).
  const unsigned lu_clients = std::max(1u, top_clients / 2);
  const bool run_lu = enabled("live_update");
  LiveUpdateResult lu_base, lu_broker;
  if (run_lu) {
    CellParams p = base;
    p.kind = Kind::kRadius;
    p.clients = lu_clients;
    p.trace = trace ? &*trace : nullptr;
    lu_base = run_live_update_baseline(p, pool);
    lu_broker = run_live_update_broker(p, pool);
  }
  const double lu_p99_ratio = lu_broker.p99_request_us > 0.0
                                  ? lu_base.p99_request_us /
                                        lu_broker.p99_request_us
                                  : 0.0;
  if (run_lu) {
    table.new_row()
        .cell("radius")
        .cell("live_update")
        .cell("rebuild-per-batch")
        .cell(lu_clients)
        .cell(base.bulk)
        .cell(lu_base.qps, 0)
        .cell(lu_base.p50_request_us, 1)
        .cell(lu_base.p99_request_us, 1)
        .cell(lu_base.rebuilds)
        .cell(1.0, 2);
    table.new_row()
        .cell("radius")
        .cell("live_update")
        .cell("broker")
        .cell(lu_clients)
        .cell(base.bulk)
        .cell(lu_broker.qps, 0)
        .cell(lu_broker.p50_request_us, 1)
        .cell(lu_broker.p99_request_us, 1)
        .cell(lu_broker.compactions)
        .cell(lu_p99_ratio, 2);
  }

  // --- sharded: aggregate throughput across S shared-nothing shards ---
  // The "ratio" column is throughput over the S=1 cell.
  const bool run_sharded = enabled("sharded");
  std::vector<std::pair<std::string, ShardedResult>> sharded_cells;
  if (run_sharded) {
    for (Kind kind : {Kind::kKnn, Kind::kRadius}) {
      const std::string workload = kind == Kind::kKnn ? "knn" : "radius";
      double base_qps = 0.0;
      for (std::int64_t shards : cli.get_int_list("shards")) {
        CellParams p = base;
        p.kind = kind;
        p.clients = top_clients;
        p.trace = trace ? &*trace : nullptr;
        ShardedResult cell =
            run_sharded_cell(p, pool, static_cast<unsigned>(shards));
        if (cell.shards == 1) base_qps = cell.qps;
        table.new_row()
            .cell(workload)
            .cell("sharded")
            .cell("router-S" + std::to_string(cell.shards))
            .cell(top_clients)
            .cell(base.bulk)
            .cell(cell.qps, 0)
            .cell(cell.p50_request_us, 1)
            .cell(cell.p99_request_us, 1)
            .cell(0)
            .cell(base_qps > 0.0 ? cell.qps / base_qps : 0.0, 2);
        sharded_cells.emplace_back(workload, cell);
      }
    }
  }
  table.print(std::cout);

  if (run_lu)
    std::printf(
        "\nlive update, sustained mutations at %u clients "
        "(target: broker p99 >= 10x below rebuild-per-batch; not scored "
        "here, the baseline's unpaced mutator starves its readers):\n"
        "  rebuild-per-batch %.1f us p99 over %zu updates (%zu rebuilds) "
        "| broker %.1f us p99 over %zu updates (%zu compactions) | "
        "%.1fx\n"
        "  stale answers for acknowledged updates: %zu (must be 0)\n",
        lu_clients, lu_base.p99_request_us, lu_base.updates,
        lu_base.rebuilds, lu_broker.p99_request_us, lu_broker.updates,
        lu_broker.compactions, lu_p99_ratio,
        lu_base.stale + lu_broker.stale);

  if (run_sharded) {
    std::printf(
        "\nsharded, %u clients over S shared-nothing shards "
        "(target: >= 3x aggregate throughput at S=4 vs S=1):\n",
        top_clients);
    for (const auto& [workload, c] : sharded_cells)
      std::printf(
          "  %-6s S=%u: %.0f qps, p50 %.1f us p99 %.1f us, "
          "boundary fanout %.4f (%llu of %zu queries, %llu shard "
          "visits)\n",
          workload.c_str(), c.shards, c.qps, c.p50_request_us,
          c.p99_request_us, c.boundary_fanout,
          static_cast<unsigned long long>(c.fanout_queries), c.queries,
          static_cast<unsigned long long>(c.shard_visits));
  }
  auto sharded_speedup = [&](const std::string& workload, unsigned s) {
    double one = 0.0, at = 0.0;
    for (const auto& [w, c] : sharded_cells) {
      if (w != workload) continue;
      if (c.shards == 1) one = c.qps;
      if (c.shards == s) at = c.qps;
    }
    return one > 0.0 ? at / one : 0.0;
  };

  // --- cold_start: time-to-first-answer, fresh build vs mmap load ---
  // The persistence acceptance number (docs/persistence.md): a broker
  // bootstrapped from a snapshot file must answer its first query >= 10x
  // sooner than one that builds the index from points. Best of three so
  // a scheduler hiccup doesn't decide the ratio; one warm broker writes
  // the snapshot both cold paths share.
  struct ColdStart {
    double build_s = 1e300;
    double load_s = 1e300;
    std::uintmax_t bytes = 0;
  } cold;
  const std::string snap_path =
      (std::filesystem::temp_directory_path() /
       "bench_service_cold_start.sepdc")
          .string();
  const bool run_cold = enabled("cold_start");
  if (run_cold) {
    service::BrokerConfig bcfg;
    bcfg.index.seed = base.seed;
    service::QueryBroker<2> warm(base.points, bcfg, pool);
    SEPDC_CHECK_MSG(warm.save_snapshot(snap_path),
                    "cold_start: snapshot save failed");
    cold.bytes = std::filesystem::file_size(snap_path);
    for (int rep = 0; rep < 3; ++rep) {
      {
        Timer t;
        service::QueryBroker<2> b(base.points, bcfg, pool);
        auto row = b.knn(queries[0], base.k);
        (void)row;
        cold.build_s = std::min(cold.build_s, t.seconds());
      }
      {
        Timer t;
        service::QueryBroker<2> b(snap_path, bcfg, pool);
        auto row = b.knn(queries[0], base.k);
        (void)row;
        cold.load_s = std::min(cold.load_s, t.seconds());
      }
    }
    std::filesystem::remove(snap_path);
  }
  const double cold_speedup =
      cold.load_s > 0.0 ? cold.build_s / cold.load_s : 0.0;
  if (run_cold)
    std::printf(
        "\ncold start, time to first answer at n=%zu (target >= 10x):\n"
        "  build %.2f ms | mmap load %.2f ms | %.1fx "
        "(snapshot %.1f MiB)\n",
        n, cold.build_s * 1e3, cold.load_s * 1e3, cold_speedup,
        static_cast<double>(cold.bytes) / (1024.0 * 1024.0));

  if (std::string path = cli.get("trace"); !path.empty() && trace) {
    std::ofstream out(path);
    trace->write_chrome_trace(out);
    std::printf("wrote %zu trace events to %s\n", trace->event_count(),
                path.c_str());
  }

  if (std::string path = cli.get("json"); !path.empty()) {
    std::ofstream json(path);
    json << "[\n";
    json << "  {\"scenario\": \"host\", \"cores\": "
         << std::thread::hardware_concurrency()
         << ", \"pool_threads\": " << pool.concurrency()
         << ", \"build_type\": \"" << SEPDC_BUILD_TYPE
         << "\", \"n\": " << n << ", \"seconds\": " << base.seconds
         << ", \"bulk\": " << base.bulk << "}";
    for (const auto& r : records) {
      const auto& s = r.cell.stats;
      json << ",\n  {\"workload\": \"" << r.workload
           << "\", \"scenario\": \"" << r.scenario << "\", \"mode\": \""
           << r.mode << "\", \"clients\": " << r.clients
           << ", \"throughput_qps\": " << r.cell.qps
           << ", \"p50_request_us\": " << r.cell.p50_request_us
           << ", \"p99_request_us\": " << r.cell.p99_request_us
           << ", \"request_queries\": " << r.cell.request_queries
           << ", \"queries\": " << r.cell.queries
           << ", \"rebuilds\": " << r.cell.rebuilds
           << ", \"submitted\": " << s.submitted
           << ", \"punted\": " << s.punted
           << ", \"expired\": " << s.expired
           << ", \"rebuilt_under\": " << s.rebuilt_under
           << ", \"punt_p50_us\": " << s.punt_latency.p50_us()
           << ", \"punt_p99_us\": " << s.punt_latency.p99_us()
           << ", \"snapshots_published\": " << s.snapshots_published
           << "}";
    }
    auto live_update_row = [&](const char* mode, const LiveUpdateResult& r) {
      json << ",\n  {\"workload\": \"radius\", \"scenario\": "
           << "\"live_update\", \"mode\": \"" << mode
           << "\", \"clients\": " << lu_clients
           << ", \"throughput_qps\": " << r.qps
           << ", \"p50_request_us\": " << r.p50_request_us
           << ", \"p99_request_us\": " << r.p99_request_us
           << ", \"queries\": " << r.queries
           << ", \"updates\": " << r.updates
           << ", \"stale_answers\": " << r.stale
           << ", \"rebuilds\": " << r.rebuilds
           << ", \"compactions\": " << r.compactions
           << ", \"delta_peak\": " << r.stats.delta_peak
           << ", \"update_apply_p99_us\": " << r.stats.update_apply.p99_us()
           << ", \"compaction_build_p99_us\": "
           << r.stats.compaction_build.p99_us() << "}";
    };
    if (run_lu) {
      live_update_row("rebuild-per-batch", lu_base);
      live_update_row("broker", lu_broker);
      json << ",\n  {\"scenario\": \"live_update_summary\", \"clients\": "
           << lu_clients << ", \"p99_ratio\": " << lu_p99_ratio
           << ", \"stale_answers\": " << lu_base.stale + lu_broker.stale
           << ", \"baseline_paced\": false}";
    }
    if (run_sharded) {
      for (const auto& [workload, c] : sharded_cells)
        json << ",\n  {\"workload\": \"" << workload
             << "\", \"scenario\": \"sharded\", \"mode\": \"router\", "
             << "\"shards\": " << c.shards
             << ", \"clients\": " << top_clients
             << ", \"throughput_qps\": " << c.qps
             << ", \"p50_request_us\": " << c.p50_request_us
             << ", \"p99_request_us\": " << c.p99_request_us
             << ", \"queries\": " << c.queries
             << ", \"boundary_fanout\": " << c.boundary_fanout
             << ", \"fanout_queries\": " << c.fanout_queries
             << ", \"shard_visits\": " << c.shard_visits
             << ", \"punted\": " << c.punted << "}";
      json << ",\n  {\"scenario\": \"sharded_summary\", \"clients\": "
           << top_clients
           << ", \"speedup_radius_4shards\": " << sharded_speedup("radius", 4)
           << ", \"speedup_knn_4shards\": " << sharded_speedup("knn", 4)
           << ", \"target\": 3.0}";
    }
    if (run_cold)
      json << ",\n  {\"scenario\": \"cold_start\", \"n\": " << n
           << ", \"build_ttfa_ms\": " << cold.build_s * 1e3
           << ", \"load_ttfa_ms\": " << cold.load_s * 1e3
           << ", \"snapshot_bytes\": " << cold.bytes
           << ", \"cold_start_speedup\": " << cold_speedup
           << ", \"target\": 10.0}";
    json << "\n]\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
