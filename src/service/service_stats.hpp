// Relaxed-atomic outcome counters for the query service.
//
// Same design as core::RunContext's diagnostics: one ServiceStats is
// shared by every client thread, the flusher, and every rebuild strand.
// Every counter is a sum (or a max), so the final value is independent
// of the interleaving — no locks on the query hot path, and a snapshot
// taken after quiescence is exact.
//
// Outcome taxonomy (per query, mutually exclusive):
//   batched   — answered through a micro-batch flush,
//   punted    — deadline could not survive the batch path, answered
//               immediately by a direct call into the snapshot index on
//               the client's thread (Punting-Lemma shape: run the fast
//               path only when it can win, otherwise fall back without
//               retrying),
//   fast_lane — the broker was idle (empty queue, no flush in flight) so
//               an interactive-class query took the direct path inline
//               without waiting out a flush interval.
//   batched + punted + fast_lane == submitted.
// Shed requests are counted *outside* this taxonomy: a query rejected by
// admission control (overload) increments only `shed` plus its class
// split (shed == shed_interactive + shed_bulk) — it was never accepted,
// so it never appears in submitted/answered, and the caller-side
// invariant is attempts == submitted + shed.
// Orthogonal markers:
//   expired       — the answer was produced after its deadline (still
//                    exact; the service degrades latency, never results),
//   rebuilt_under — answered while a snapshot rebuild was in flight.
// Flush-trigger taxonomy (per flush, mutually exclusive):
//   flush_by_size + flush_by_deadline + flush_by_stop == flushes
// (a shutdown drain whose size condition was never met counts as
// flush_by_stop, not flush_by_size — the trigger the flusher actually
// acted on, so the trigger mix is trustworthy controller input).
//
// Latency histograms (metrics::Histogram, lock-free log-bucket): the
// counters say *what* happened, the histograms say *where the time
// went*. Recording conventions, and the reconciliation invariants the
// service tests assert at quiescence:
//   queue_wait    — per batched query: enqueue -> flush swap (ns);
//                   count == batched.
//   batch_execute — per flush: whole execute() duration (ns);
//                   count == flushes.
//   punt_latency  — per punted query: whole direct answer time (ns);
//                   count == punted.
//   fast_lane_latency — per fast-lane query: whole inline answer time
//                   (ns); count == fast_lane.
//   flush_size    — per flush: total queries in the micro-batch;
//                   count == flushes, sum == batched (sums are exact,
//                   so this reconciles the histogram against the
//                   outcome counters with no bucket error).
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
  std::size_t batched = 0;         // answered via a micro-batch
  std::size_t punted = 0;          // answered by a direct index call
  std::size_t fast_lane = 0;       // answered inline on an idle broker
  std::size_t shed = 0;            // rejected by admission control
  std::size_t shed_interactive = 0;  // shed, interactive class
  std::size_t shed_bulk = 0;         // shed, bulk class
  std::size_t expired = 0;         // answered after their deadline
  std::size_t rebuilt_under = 0;   // answered while a rebuild was in flight
  std::size_t bulk_requests = 0;   // multi-query submissions
  std::size_t class_interactive = 0;  // accepted queries, interactive class
  std::size_t class_bulk = 0;         // accepted queries, bulk class
  std::size_t flushes = 0;         // micro-batches executed
  std::size_t flush_by_size = 0;   // flush triggered by max_batch
  std::size_t flush_by_deadline = 0;  // flush triggered by flush_interval
  std::size_t flush_by_stop = 0;   // shutdown drain, size condition unmet
  std::size_t max_flush_queries = 0;  // largest micro-batch seen
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
  // Adaptive batching controller (docs/service_architecture.md, "SLO
  // routing & degradation"): decision counts plus the live operating
  // point (gauges, not sums — the last value the controller installed).
  std::size_t controller_updates = 0;  // decisions taken
  std::size_t controller_tighten = 0;  // decisions that shrank the knobs
  std::size_t controller_relax = 0;    // decisions that grew the knobs
  std::size_t controller_pressure_tighten = 0;  // tightened under
                                                // rebuild/compaction pressure
  // Sharding (shard_router.hpp): a router counts every accepted query
  // once in fanout_queries iff it had to visit more than one shard, and
  // each shard visit (including the home shard) in shard_visits.
  // boundary_fanout = fanout_queries / submitted is the measured
  // boundary-crossing fraction the paper's intersection-number bound
  // O(k^(1/d) n^((d-1)/d)) promises stays a vanishing share.
  std::size_t fanout_queries = 0;  // queries that crossed a separator
  std::size_t shard_visits = 0;    // total per-shard sub-queries issued
  double boundary_fanout = 0.0;    // derived: fanout_queries / submitted
  std::size_t cur_flush_interval_us = 0;  // gauge: operating flush interval
  std::size_t cur_max_batch = 0;          // gauge: operating batch cap
  double est_batch_us_per_query = 0.0;  // EWMA batch service cost
  metrics::HistogramSnapshot queue_wait;     // ns per batched query
  metrics::HistogramSnapshot batch_execute;  // ns per flush
  metrics::HistogramSnapshot punt_latency;   // ns per punted query
  metrics::HistogramSnapshot fast_lane_latency;  // ns per fast-lane query
  metrics::HistogramSnapshot flush_size;     // queries per flush
  metrics::HistogramSnapshot index_load;     // ns per snapshot bootstrap
  metrics::HistogramSnapshot update_apply;   // ns per insert/remove
  metrics::HistogramSnapshot compaction_build;  // ns per compaction
};

class ServiceStats {
 public:
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> batched{0};
  std::atomic<std::size_t> punted{0};
  std::atomic<std::size_t> fast_lane{0};
  std::atomic<std::size_t> shed{0};
  std::atomic<std::size_t> shed_interactive{0};
  std::atomic<std::size_t> shed_bulk{0};
  std::atomic<std::size_t> expired{0};
  std::atomic<std::size_t> rebuilt_under{0};
  std::atomic<std::size_t> bulk_requests{0};
  std::atomic<std::size_t> class_interactive{0};
  std::atomic<std::size_t> class_bulk{0};
  std::atomic<std::size_t> flushes{0};
  std::atomic<std::size_t> flush_by_size{0};
  std::atomic<std::size_t> flush_by_deadline{0};
  std::atomic<std::size_t> flush_by_stop{0};
  std::atomic<std::size_t> max_flush_queries{0};
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
  std::atomic<std::size_t> controller_updates{0};
  std::atomic<std::size_t> controller_tighten{0};
  std::atomic<std::size_t> controller_relax{0};
  std::atomic<std::size_t> controller_pressure_tighten{0};
  std::atomic<std::size_t> fanout_queries{0};
  std::atomic<std::size_t> shard_visits{0};
  // Gauges (plain stores, last writer wins): the broker's current
  // operating point, written at construction and by every controller
  // decision so observers can see the adaptation without broker access.
  std::atomic<std::size_t> cur_flush_interval_us{0};
  std::atomic<std::size_t> cur_max_batch{0};
  // EWMA of per-query batch service time in microseconds; feeds the punt
  // decision (a deadline shorter than the estimated batch-path completion
  // takes the direct path instead) and the admission controller (the
  // estimated backlog a new bulk request would join).
  std::atomic<double> est_batch_us_per_query{0.0};

  // Latency / distribution histograms; see the recording conventions at
  // the top of this file.
  metrics::Histogram queue_wait;
  metrics::Histogram batch_execute;
  metrics::Histogram punt_latency;
  metrics::Histogram fast_lane_latency;
  metrics::Histogram flush_size;
  metrics::Histogram index_load;
  metrics::Histogram update_apply;
  metrics::Histogram compaction_build;

  static void add(std::atomic<std::size_t>& counter, std::size_t v) {
    counter.fetch_add(v, std::memory_order_relaxed);
  }

  // Gauge semantics: last writer wins (the controller is the only
  // writer; readers take whatever operating point was current).
  static void set_gauge(std::atomic<std::size_t>& g, std::size_t v) {
    g.store(v, std::memory_order_relaxed);
  }

  static void bump_max(std::atomic<std::size_t>& m, std::size_t v) {
    std::size_t cur = m.load(std::memory_order_relaxed);
    while (cur < v &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // CAS loop, not load+store: the flusher is the sole writer today, but
  // the estimator must stay safe as callers grow (multiple broker
  // shards, a warmup prober). The loop guarantees every update applies
  // the EWMA step to the value it actually replaced, so the estimate
  // always stays inside the convex hull of the observations — the
  // invariant the multi-writer stress test pins.
  void observe_batch_cost(double us_per_query) {
    constexpr double kAlpha = 0.25;
    double cur = est_batch_us_per_query.load(std::memory_order_relaxed);
    double next;
    do {
      next = cur == 0.0 ? us_per_query
                        : cur + kAlpha * (us_per_query - cur);
    } while (!est_batch_us_per_query.compare_exchange_weak(
        cur, next, std::memory_order_relaxed));
  }

  ServiceStatsSnapshot snapshot() const {
    ServiceStatsSnapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.batched = batched.load(std::memory_order_relaxed);
    s.punted = punted.load(std::memory_order_relaxed);
    s.fast_lane = fast_lane.load(std::memory_order_relaxed);
    s.shed = shed.load(std::memory_order_relaxed);
    s.shed_interactive = shed_interactive.load(std::memory_order_relaxed);
    s.shed_bulk = shed_bulk.load(std::memory_order_relaxed);
    s.expired = expired.load(std::memory_order_relaxed);
    s.rebuilt_under = rebuilt_under.load(std::memory_order_relaxed);
    s.bulk_requests = bulk_requests.load(std::memory_order_relaxed);
    s.class_interactive = class_interactive.load(std::memory_order_relaxed);
    s.class_bulk = class_bulk.load(std::memory_order_relaxed);
    s.flushes = flushes.load(std::memory_order_relaxed);
    s.flush_by_size = flush_by_size.load(std::memory_order_relaxed);
    s.flush_by_deadline = flush_by_deadline.load(std::memory_order_relaxed);
    s.flush_by_stop = flush_by_stop.load(std::memory_order_relaxed);
    s.max_flush_queries =
        max_flush_queries.load(std::memory_order_relaxed);
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
    s.controller_updates =
        controller_updates.load(std::memory_order_relaxed);
    s.controller_tighten =
        controller_tighten.load(std::memory_order_relaxed);
    s.controller_relax = controller_relax.load(std::memory_order_relaxed);
    s.controller_pressure_tighten =
        controller_pressure_tighten.load(std::memory_order_relaxed);
    s.fanout_queries = fanout_queries.load(std::memory_order_relaxed);
    s.shard_visits = shard_visits.load(std::memory_order_relaxed);
    s.boundary_fanout =
        s.submitted > 0 ? static_cast<double>(s.fanout_queries) /
                              static_cast<double>(s.submitted)
                        : 0.0;
    s.cur_flush_interval_us =
        cur_flush_interval_us.load(std::memory_order_relaxed);
    s.cur_max_batch = cur_max_batch.load(std::memory_order_relaxed);
    s.est_batch_us_per_query =
        est_batch_us_per_query.load(std::memory_order_relaxed);
    s.queue_wait = queue_wait.snapshot();
    s.batch_execute = batch_execute.snapshot();
    s.punt_latency = punt_latency.snapshot();
    s.fast_lane_latency = fast_lane_latency.snapshot();
    s.flush_size = flush_size.snapshot();
    s.index_load = index_load.snapshot();
    s.update_apply = update_apply.snapshot();
    s.compaction_build = compaction_build.snapshot();
    return s;
  }
};

}  // namespace sepdc::service
