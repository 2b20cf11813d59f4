// Relaxed-atomic outcome counters for the query service.
//
// Same design as core::RunContext's diagnostics: one ServiceStats is
// shared by every client thread and every rebuild strand. Every counter
// is a sum (or a max), so the final value is independent of the
// interleaving — no locks on the query hot path, and a snapshot taken
// after quiescence is exact.
//
// Outcome taxonomy. The broker answers every query on the caller's
// thread by a direct index call (query_broker.hpp), so each answered
// query counts in `punted`, and punted == submitted at quiescence.
// `batched`, `fast_lane` and `shed` (and the queue_wait, batch_execute
// and flush_size histograms) belong to serving paths that no longer
// exist: they stay in the snapshot, always zero or empty, so readers
// that check the old identities (batched + punted + fast_lane ==
// submitted, attempts == submitted + shed) still hold.
// Orthogonal markers:
//   expired       — the answer was produced after its deadline (still
//                    exact; the service degrades latency, never results),
//   rebuilt_under — answered while a snapshot rebuild was in flight.
//
// Latency histograms (metrics::Histogram, lock-free log-bucket): the
// counters say *what* happened, the histograms say *where the time
// went*. Recording conventions, and the reconciliation invariants the
// service tests assert at quiescence:
//   punt_latency  — per answered query: the whole call's answer time
//                   (ns), recorded once per query of the call;
//                   count == punted.
//   index_load    — per snapshot bootstrap: whole load_snapshot ->
//                   publish duration (ns); count == snapshot_loads.
//   update_apply  — per insert/remove: apply -> view publication (ns);
//                   count == updates_submitted.
//   compaction_build — per *installed* compaction: seal -> publish (ns);
//                   count == compactions.
// Per-op reconciliation (asserted by bench_service and the update
// differential suite at quiescence):
//   knn_submitted + radius_submitted == submitted,
//   knn_answered == knn_submitted, radius_answered == radius_submitted,
//   updates_submitted == inserts + removes.
#pragma once

#include <atomic>
#include <cstddef>

#include "support/metrics.hpp"

namespace sepdc::service {

// Plain value snapshot, safe to copy around and serialize.
struct ServiceStatsSnapshot {
  std::size_t submitted = 0;       // queries accepted by the service
  std::size_t batched = 0;         // always 0: no micro-batch path
  std::size_t punted = 0;          // answered by a direct index call
  std::size_t fast_lane = 0;       // always 0: no fast-lane path
  std::size_t shed = 0;            // always 0: no admission control
  std::size_t expired = 0;         // answered after their deadline
  std::size_t rebuilt_under = 0;   // answered while a rebuild was in flight
  std::size_t bulk_requests = 0;   // multi-query submissions
  std::size_t rebuilds = 0;            // rebuilds started
  std::size_t snapshots_published = 0;  // generations that won publication
  std::size_t snapshots_discarded = 0;  // stale builds beaten by a newer one
  std::size_t snapshot_saves = 0;   // generations serialized to disk
  std::size_t snapshot_loads = 0;   // generations bootstrapped from disk
  std::size_t knn_submitted = 0;    // k-NN queries accepted
  std::size_t radius_submitted = 0;  // radius queries accepted
  std::size_t knn_answered = 0;     // k-NN queries answered
  std::size_t radius_answered = 0;  // radius queries answered
  std::size_t updates_submitted = 0;  // inserts + removes applied
  std::size_t inserts = 0;            // live-tier inserts applied
  std::size_t removes = 0;            // live-tier removes applied
  std::size_t compactions = 0;        // delta -> base merges installed
  std::size_t compactions_abandoned = 0;  // sealed but never installed
  std::size_t delta_peak = 0;         // largest pending delta seen
  // Sharding (shard_router.hpp): a router counts every accepted query
  // once in fanout_queries iff it had to visit more than one shard, and
  // each shard visit (including the home shard) in shard_visits.
  // boundary_fanout = fanout_queries / submitted is the measured
  // boundary-crossing fraction the paper's intersection-number bound
  // O(k^(1/d) n^((d-1)/d)) promises stays a vanishing share.
  std::size_t fanout_queries = 0;  // queries that crossed a separator
  std::size_t shard_visits = 0;    // total per-shard sub-queries issued
  double boundary_fanout = 0.0;    // derived: fanout_queries / submitted
  metrics::HistogramSnapshot queue_wait;     // always empty
  metrics::HistogramSnapshot batch_execute;  // always empty
  metrics::HistogramSnapshot punt_latency;   // ns per answered query
  metrics::HistogramSnapshot flush_size;     // always empty
  metrics::HistogramSnapshot index_load;     // ns per snapshot bootstrap
  metrics::HistogramSnapshot update_apply;   // ns per insert/remove
  metrics::HistogramSnapshot compaction_build;  // ns per compaction
};

class ServiceStats {
 public:
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> punted{0};
  std::atomic<std::size_t> expired{0};
  std::atomic<std::size_t> rebuilt_under{0};
  std::atomic<std::size_t> bulk_requests{0};
  std::atomic<std::size_t> rebuilds{0};
  std::atomic<std::size_t> snapshots_published{0};
  std::atomic<std::size_t> snapshots_discarded{0};
  std::atomic<std::size_t> snapshot_saves{0};
  std::atomic<std::size_t> snapshot_loads{0};
  std::atomic<std::size_t> knn_submitted{0};
  std::atomic<std::size_t> radius_submitted{0};
  std::atomic<std::size_t> knn_answered{0};
  std::atomic<std::size_t> radius_answered{0};
  std::atomic<std::size_t> updates_submitted{0};
  std::atomic<std::size_t> inserts{0};
  std::atomic<std::size_t> removes{0};
  std::atomic<std::size_t> compactions{0};
  std::atomic<std::size_t> compactions_abandoned{0};
  std::atomic<std::size_t> delta_peak{0};
  std::atomic<std::size_t> fanout_queries{0};
  std::atomic<std::size_t> shard_visits{0};

  // Latency / distribution histograms; see the recording conventions at
  // the top of this file.
  metrics::Histogram punt_latency;
  metrics::Histogram index_load;
  metrics::Histogram update_apply;
  metrics::Histogram compaction_build;

  static void add(std::atomic<std::size_t>& counter, std::size_t v) {
    counter.fetch_add(v, std::memory_order_relaxed);
  }

  static void bump_max(std::atomic<std::size_t>& m, std::size_t v) {
    std::size_t cur = m.load(std::memory_order_relaxed);
    while (cur < v &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  ServiceStatsSnapshot snapshot() const {
    ServiceStatsSnapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.punted = punted.load(std::memory_order_relaxed);
    s.expired = expired.load(std::memory_order_relaxed);
    s.rebuilt_under = rebuilt_under.load(std::memory_order_relaxed);
    s.bulk_requests = bulk_requests.load(std::memory_order_relaxed);
    s.rebuilds = rebuilds.load(std::memory_order_relaxed);
    s.snapshots_published =
        snapshots_published.load(std::memory_order_relaxed);
    s.snapshots_discarded =
        snapshots_discarded.load(std::memory_order_relaxed);
    s.snapshot_saves = snapshot_saves.load(std::memory_order_relaxed);
    s.snapshot_loads = snapshot_loads.load(std::memory_order_relaxed);
    s.knn_submitted = knn_submitted.load(std::memory_order_relaxed);
    s.radius_submitted = radius_submitted.load(std::memory_order_relaxed);
    s.knn_answered = knn_answered.load(std::memory_order_relaxed);
    s.radius_answered = radius_answered.load(std::memory_order_relaxed);
    s.updates_submitted =
        updates_submitted.load(std::memory_order_relaxed);
    s.inserts = inserts.load(std::memory_order_relaxed);
    s.removes = removes.load(std::memory_order_relaxed);
    s.compactions = compactions.load(std::memory_order_relaxed);
    s.compactions_abandoned =
        compactions_abandoned.load(std::memory_order_relaxed);
    s.delta_peak = delta_peak.load(std::memory_order_relaxed);
    s.fanout_queries = fanout_queries.load(std::memory_order_relaxed);
    s.shard_visits = shard_visits.load(std::memory_order_relaxed);
    s.boundary_fanout =
        s.submitted > 0 ? static_cast<double>(s.fanout_queries) /
                              static_cast<double>(s.submitted)
                        : 0.0;
    s.punt_latency = punt_latency.snapshot();
    s.index_load = index_load.snapshot();
    s.update_apply = update_apply.snapshot();
    s.compaction_build = compaction_build.snapshot();
    return s;
  }
};

}  // namespace sepdc::service
