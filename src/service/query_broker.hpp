// QueryBroker — a concurrent query front-end over the separator index.
//
// Many client threads call knn()/radius() (single or bulk); the broker
// coalesces their requests into micro-batches and routes each batch to
// SeparatorIndex::batch_knn / batch_radius on the shared thread pool —
// the batched kernels are where the flat forest layout pays off, and
// (as in ParGeo-style batched geometry serving) one batch of b queries
// costs far less than b independent dispatches. A dedicated flusher
// thread drains the pending queue whenever it holds max_batch queries
// (flush on size) or the oldest request has waited flush_interval
// (flush on deadline).
//
// Index updates never block readers: rebuilds construct a complete
// immutable snapshot off to the side and publish it through the
// SnapshotStore's atomic shared_ptr slot. A query grabs the current
// snapshot once and runs entirely against that generation.
//
// Point-level mutation goes through the delta tier (delta_tier.hpp,
// docs/updates.md): insert()/remove() apply to a small mutable overlay
// whose hits are merged into every answer under the same (dist2, id)
// contract, with removals masking base hits via tombstones. An update is
// visible to every query submitted after the updating call returned.
// When the pending delta crosses delta_compaction_threshold the broker
// seals it and builds a fresh base generation on the pool in the
// background (readers keep answering from base+sealed+active
// throughout), then installs the new base and drops the sealed segment
// in one atomic view publication.
//
// Deadline-aware degradation follows the Punting Lemma's shape (run the
// preferred algorithm only while it can still win; otherwise fall back
// immediately rather than retrying): a query whose deadline cannot
// survive the batch path — the *remaining* wait until the pending
// queue's flush fires plus the estimated batch service time — is
// *punted* at submission: answered by a direct call into the same
// snapshot index (SeparatorIndex::knn / for_each_in_ball) on the
// client's own thread. There is one query engine, so a punted answer is
// bit-equal to the batched one — punting degrades latency, never
// answers. Per-outcome counters (batched, punted,
// fast-lane, expired, rebuilt-under) land in a relaxed-atomic
// ServiceStats.
//
// Latency-SLO routing (docs/service_architecture.md, "SLO routing &
// degradation") layers four opt-in mechanisms on those signals:
//   * SLO classes — every request carries SloClass::kInteractive or
//     kBulk (defaulted per entry point), with per-class default budgets
//     in SloConfig.
//   * Idle fast-lane — when the queue is empty and no flush is in
//     flight, an interactive request answers inline via the exact punt
//     machinery, so a lone query sees direct-path latency instead of a
//     full flush interval.
//   * Adaptive batching — an AIMD controller on the flusher thread
//     retunes the operating flush interval and batch cap from windowed
//     queue-wait quantiles, bounded by configured min/max.
//   * Admission control — a bulk-class request whose EWMA-estimated
//     backlog exceeds shed_factor x its budget is rejected with
//     QueryError("overload") before it can join (and lengthen) the
//     queue, so overload degrades bulk predictably instead of
//     collapsing every class's tail.
// All four change latency and acceptance only — never the bytes of an
// accepted answer.
//
// Result contracts (independent of batching, punting, and timing):
//   knn rows    — exactly k nearest (fewer iff the snapshot has fewer
//                 candidates), sorted by (dist2, id); ties by lower id.
//   radius rows — every point with distance(q, p) <= r (closed ball),
//                 sorted by (dist2, id).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/separator_index.hpp"
#include "parallel/thread_pool.hpp"
#include "service/delta_tier.hpp"
#include "service/service_stats.hpp"
#include "service/snapshot.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace sepdc::service {

// QueryError (thrown at submission, before any accounting, for
// parameters the service cannot answer — k == 0, NaN radius, negative
// budget, insert of a live id) lives in delta_tier.hpp, shared with the
// live store.

// Per-request SLO class. Routing metadata, never correctness: both
// classes get exact answers with the identical (dist2, id) tie-break;
// they differ only in which degradations the broker may apply.
//   kInteractive — latency-sensitive: eligible for the idle fast-lane,
//                  never shed by admission control.
//   kBulk        — throughput traffic: always takes the batch/punt
//                  machinery, and may be shed with QueryError("overload")
//                  when the estimated backlog exceeds its admission
//                  budget multiple.
// Entry-point defaults: single-query knn()/radius() submit interactive,
// bulk_knn()/bulk_radius() submit bulk; every entry point accepts an
// explicit class.
enum class SloClass : std::uint8_t { kInteractive = 0, kBulk = 1 };

// Latency-SLO routing knobs. Everything is off by default: a
// default-constructed SloConfig makes the broker behave exactly like
// the pre-SLO one (no fast lane, no shedding, fixed batching knobs).
struct SloConfig {
  // Default budget applied when a request of the class passes
  // kNoDeadline; kNoDeadline here means "no default" (such requests
  // never punt, never shed, never expire).
  std::chrono::microseconds interactive_budget{0};
  std::chrono::microseconds bulk_budget{0};
  // Idle fast-lane: when no query is pending and no flush is in flight,
  // answer interactive requests inline via the exact direct path
  // instead of queueing them behind a flush interval.
  bool fast_lane = false;
  // Admission control: shed a bulk-class request with
  // QueryError("overload") when the EWMA-estimated backlog
  // (est_batch_us_per_query x queued-plus-incoming queries) exceeds
  // shed_factor x the request's effective budget. 0 disables shedding;
  // requests without a budget are priced by the queue-depth backstop
  // below instead (they can afford any wait, but the queue cannot
  // afford them without bound).
  double shed_factor = 0.0;
  // Cost-based shed pricing for interactive traffic: an interactive
  // request whose estimated backlog already exceeds
  // interactive_shed_factor x its budget is hopeless — it would punt and
  // still miss — so it fails fast with QueryError("overload") instead of
  // burning a direct-path answer past its SLO. 0 disables (the
  // pre-existing behavior: interactive traffic never sheds). Kept
  // separate from shed_factor because interactive punting is usually the
  // better degradation; only enable this when the punt path itself is
  // saturating.
  double interactive_shed_factor = 0.0;
  // Queue-depth backstop for budget-less bulk traffic: without a budget
  // there is no admission price, so under sustained overload such
  // requests used to join (and lengthen) the queue without bound while
  // interactive attainment collapsed. When > 0, a budget-less bulk
  // request is shed with QueryError("overload") once the pending queue
  // holds this many queries. 0 disables the backstop.
  std::size_t bulk_queue_backstop = 0;
  // Adaptive batching: an AIMD controller on the flusher thread retunes
  // the operating flush interval and batch cap every control_period
  // flushes — halves both when the windowed queue-wait p99 overshoots
  // target_queue_wait, regrows them additively when it sits below half
  // the target — clamped to [min_flush_interval, max_flush_interval]
  // and [min_batch, max_batch]. Decisions are visible as the
  // controller_* counters, the cur_* gauges, and an "slo_controller"
  // trace span.
  bool adaptive = false;
  std::chrono::microseconds min_flush_interval{25};
  std::chrono::microseconds max_flush_interval{2000};
  std::size_t min_batch = 8;
  std::size_t max_batch = 1024;
  std::chrono::microseconds target_queue_wait{150};
  std::size_t control_period = 8;
};

struct BrokerConfig {
  // Flush the pending queue as soon as it holds this many queries.
  std::size_t max_batch = 64;
  // ... or as soon as the oldest pending request has waited this long.
  std::chrono::microseconds flush_interval{200};
  // Build configuration for every snapshot generation (the seed is
  // perturbed per generation so rebuilds decorrelate).
  core::SeparatorIndexConfig index;
  // Optional phase tracing (see support/trace.hpp): when set, flushes,
  // batch kernels, punts, and snapshot builds emit spans. Null = off,
  // zero overhead. The recorder must outlive the broker.
  metrics::TraceRecorder* trace = nullptr;
  // Seal the delta and compact it into a fresh base generation (on the
  // pool, in the background) once this many pending updates accumulate.
  // 0 disables the automatic trigger — compact() still works on demand.
  std::size_t delta_compaction_threshold = 256;
  // Latency-SLO routing: class defaults, fast lane, adaptive batching,
  // admission control. Defaults leave all of it off.
  SloConfig slo;
};

template <int D>
class QueryBroker {
 public:
  using Clock = std::chrono::steady_clock;
  using KnnRow = std::vector<knn::TopK::Entry>;
  using RadiusRow = std::vector<std::pair<std::uint32_t, double>>;
  using Snapshot = IndexSnapshot<D>;
  using SnapshotPtr = typename SnapshotStore<D>::Ptr;
  using ViewPtr = typename LiveStore<D>::ViewPtr;

  static constexpr std::uint32_t kNoExclude =
      core::SeparatorIndex<D>::kNoExclude;
  // Only kNoDeadline *exactly* means "no deadline: never punt, never
  // shed, never expires" (unless the request's SLO class carries a
  // default budget in SloConfig). A negative budget is not a deadline
  // the service can honor and is rejected at the door with
  // QueryError("budget") — before any counter moves — matching the
  // k == 0 / non-finite-radius precedent.
  static constexpr std::chrono::microseconds kNoDeadline{0};

  // An empty `points` span starts the service delta-only: generation 1
  // is the empty base and every answer comes from the live tier until
  // the first compaction builds a real index.
  QueryBroker(std::span<const geo::Point<D>> points,
              const BrokerConfig& cfg, par::ThreadPool& pool)
      : cfg_(cfg), pool_(pool) {
    SEPDC_CHECK_MSG(cfg_.max_batch >= 1, "max_batch must be >= 1");
    init_operating_point();
    rebuild(points);  // generation 1, synchronous: never serve view-less
    flusher_ = std::thread([this] { flusher_loop(); });
  }

  // Sharded start (shard_router.hpp): like the points ctor, but the
  // base generation answers with the caller's external ids instead of
  // positions 0..n-1 — a shard owns an arbitrary subset of the global
  // id space. `external_ids` must be parallel to `points`; strictly
  // increasing ids additionally make the saved snapshot loadable (the
  // io layer pins that ordering), which shard subsets of an ascending
  // sequence satisfy by construction.
  QueryBroker(std::span<const geo::Point<D>> points,
              std::span<const std::uint32_t> external_ids,
              const BrokerConfig& cfg, par::ThreadPool& pool)
      : cfg_(cfg), pool_(pool) {
    SEPDC_CHECK_MSG(cfg_.max_batch >= 1, "max_batch must be >= 1");
    SEPDC_CHECK_MSG(external_ids.size() == points.size(),
                    "external_ids must be parallel to points");
    init_operating_point();
    RebuildScope scope(*this);
    rebuild_locked_free(points, external_ids);
    flusher_ = std::thread([this] { flusher_loop(); });
  }

  // Cold-start from a snapshot file (docs/persistence.md): generation 1
  // is mmap-loaded instead of built, so time-to-first-answer is bounded
  // by validation + page faults, not by an index build. Throws
  // io::SnapshotIoError — and starts nothing — on any file defect.
  // rebuild()/rebuild_async() work as usual afterwards.
  QueryBroker(const std::string& snapshot_path, const BrokerConfig& cfg,
              par::ThreadPool& pool)
      : cfg_(cfg), pool_(pool) {
    SEPDC_CHECK_MSG(cfg_.max_batch >= 1, "max_batch must be >= 1");
    init_operating_point();
    io::LoadedDelta<D> delta;
    store_.bootstrap_from(snapshot_path, &stats_, cfg_.trace, &delta);
    // Replay the file's pending delta into the live tier: a save taken
    // with updates in flight bootstraps to the identical live set.
    live_.reset_with_delta(store_.current(), std::move(delta.ids),
                           std::move(delta.points),
                           std::move(delta.tombstones));
    flusher_ = std::thread([this] { flusher_loop(); });
  }

  // Serializes the current base generation *and* the pending delta to
  // `path` (atomic tmp + rename) as one coherent view — a save taken
  // mid-compaction flattens sealed + active relative to the base it
  // pairs with, so bootstrap replays the exact live set. Returns false —
  // and writes nothing — while the base is the empty generation (a
  // snapshot file needs a built index). Safe to call concurrently with
  // queries, updates, rebuilds, and compactions.
  bool save_snapshot(const std::string& path) {
    ViewPtr view = live_.current();
    if (view == nullptr || !view->has_base()) return false;
    metrics::TraceSpan span(cfg_.trace, "index_save", "snapshot");
    FlatDelta<D> flat = flatten_delta(*view);
    io::SnapshotSidecar<D> sidecar;
    if (view->base->external_ids != nullptr)
      sidecar.external_ids = *view->base->external_ids;
    sidecar.delta_ids = flat.ids;
    sidecar.delta_points = flat.points;
    sidecar.tombstones = flat.tombstones;
    io::save_snapshot<D>(path, *view->base->index, view->base->version,
                         sidecar);
    ServiceStats::add(stats_.snapshot_saves, 1);
    return true;
  }

  // Sharded save (shard_router.hpp): save_snapshot plus the shard
  // function sections, and — unlike save_snapshot — never a no-op: a
  // shard whose base is still the empty generation writes the stub
  // format (shard function + flattened delta) instead, so every shard
  // of a sharded save produces a loadable file. Returns the saved base
  // version (0 for a stub).
  std::uint64_t save_shard(const std::string& path,
                           std::span<const core::ForestNode<D>> cut,
                           std::uint32_t shard_count,
                           std::uint32_t shard_id, std::uint32_t root) {
    ViewPtr view = live_.current();
    metrics::TraceSpan span(cfg_.trace, "index_save", "snapshot");
    if (view == nullptr || !view->has_base()) {
      FlatDelta<D> flat =
          view != nullptr ? flatten_delta(*view) : FlatDelta<D>{};
      // No base means nothing to tombstone against: the flattened
      // delta is pure adds (read_shard_file pins this).
      io::save_shard_stub<D>(path, cut, shard_count, shard_id, root,
                             /*version=*/0, flat.ids, flat.points,
                             flat.tombstones);
      ServiceStats::add(stats_.snapshot_saves, 1);
      return 0;
    }
    FlatDelta<D> flat = flatten_delta(*view);
    io::SnapshotSidecar<D> sidecar;
    if (view->base->external_ids != nullptr)
      sidecar.external_ids = *view->base->external_ids;
    sidecar.delta_ids = flat.ids;
    sidecar.delta_points = flat.points;
    sidecar.tombstones = flat.tombstones;
    sidecar.shard_nodes = cut;
    sidecar.shard_count = shard_count;
    sidecar.shard_id = shard_id;
    sidecar.shard_root = root;
    io::save_snapshot<D>(path, *view->base->index, view->base->version,
                         sidecar);
    ServiceStats::add(stats_.snapshot_saves, 1);
    return view->base->version;
  }

  ~QueryBroker() { shutdown(); }

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  // Drains pending queries, stops the flusher, and waits for outstanding
  // async rebuilds. Not safe to race with concurrent submissions of new
  // work; intended for the owner's teardown path (the destructor calls
  // it).
  void shutdown() SEPDC_EXCLUDES(mu_) {
    {
      LockGuard lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    queue_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
    try {
      drain_rebuilds();
    } catch (...) {
      // Teardown must not throw; rebuild failures surface via
      // drain_rebuilds() when called explicitly.
    }
  }

  // ------------------------------------------------------- client API
  // All entry points are safe to call from any number of threads.

  KnnRow knn(const geo::Point<D>& q, std::size_t k,
             std::chrono::microseconds budget = kNoDeadline,
             std::uint32_t exclude = kNoExclude,
             SloClass cls = SloClass::kInteractive) {
    std::uint32_t ex = exclude;
    auto rows = run_knn({&q, 1}, k, budget,
                        exclude == kNoExclude
                            ? std::span<const std::uint32_t>{}
                            : std::span<const std::uint32_t>{&ex, 1},
                        cls, /*bulk_entry=*/false);
    return std::move(rows[0]);
  }

  // Bulk k-NN: one submission covering many queries (the whole bulk
  // shares one wait, so per-query synchronization cost amortizes away).
  // `exclude`, when non-empty, carries one point id per query to skip —
  // pass the identity to compute an all-k-NN over the indexed points.
  std::vector<KnnRow> bulk_knn(std::span<const geo::Point<D>> queries,
                               std::size_t k,
                               std::chrono::microseconds budget =
                                   kNoDeadline,
                               std::span<const std::uint32_t> exclude = {},
                               SloClass cls = SloClass::kBulk) {
    return run_knn(queries, k, budget, exclude, cls, /*bulk_entry=*/true);
  }

  RadiusRow radius(const geo::Point<D>& q, double r,
                   std::chrono::microseconds budget = kNoDeadline,
                   SloClass cls = SloClass::kInteractive) {
    auto rows = run_radius({&q, 1}, r, budget, cls, /*bulk_entry=*/false);
    return std::move(rows[0]);
  }

  std::vector<RadiusRow> bulk_radius(
      std::span<const geo::Point<D>> queries, double r,
      std::chrono::microseconds budget = kNoDeadline,
      SloClass cls = SloClass::kBulk) {
    return run_radius(queries, r, budget, cls, /*bulk_entry=*/true);
  }

  // ------------------------------------------------------- update API
  // As-of-submission semantics: when insert()/remove() returns, the
  // update is visible to every query submitted afterwards, from any
  // thread. Both throw QueryError — before any counter moves — on
  // invalid requests (reserved/live id on insert, dead id on remove,
  // non-finite coordinates).

  void insert(std::uint32_t id, const geo::Point<D>& p) {
    Timer timer;
    auto outcome = live_.insert(id, p);
    ServiceStats::add(stats_.updates_submitted, 1);
    ServiceStats::add(stats_.inserts, 1);
    ServiceStats::bump_max(stats_.delta_peak, outcome.delta_pending);
    stats_.update_apply.record_seconds(timer.seconds());
    maybe_compact(outcome.delta_pending);
  }

  void remove(std::uint32_t id) {
    Timer timer;
    auto outcome = live_.remove(id);
    ServiceStats::add(stats_.updates_submitted, 1);
    ServiceStats::add(stats_.removes, 1);
    ServiceStats::bump_max(stats_.delta_peak, outcome.delta_pending);
    stats_.update_apply.record_seconds(timer.seconds());
    maybe_compact(outcome.delta_pending);
  }

  // Bulk mutation: the whole batch becomes visible in *one* live-view
  // publication (per-element insert() used to publish O(batch) views —
  // every one a shared_ptr allocation plus a full delta-segment rebuild).
  // All-or-nothing: every element is validated before anything is
  // applied, so a batch with one bad entry throws QueryError and changes
  // nothing — no counter moves, no view publishes. As-of-submission
  // semantics are those of the batch: when the call returns, every
  // element is visible to every query submitted afterwards.
  void insert_bulk(std::span<const std::uint32_t> ids,
                   std::span<const geo::Point<D>> points) {
    SEPDC_CHECK_MSG(ids.size() == points.size(),
                    "broker insert_bulk: ids and points must be parallel");
    if (ids.empty()) return;
    Timer timer;
    auto outcome = live_.insert_bulk(ids, points);
    ServiceStats::add(stats_.updates_submitted, ids.size());
    ServiceStats::add(stats_.inserts, ids.size());
    ServiceStats::bump_max(stats_.delta_peak, outcome.delta_pending);
    stats_.update_apply.record_seconds(timer.seconds(), ids.size());
    maybe_compact(outcome.delta_pending);
  }

  void remove_bulk(std::span<const std::uint32_t> ids) {
    if (ids.empty()) return;
    Timer timer;
    auto outcome = live_.remove_bulk(ids);
    ServiceStats::add(stats_.updates_submitted, ids.size());
    ServiceStats::add(stats_.removes, ids.size());
    ServiceStats::bump_max(stats_.delta_peak, outcome.delta_pending);
    stats_.update_apply.record_seconds(timer.seconds(), ids.size());
    maybe_compact(outcome.delta_pending);
  }

  // Synchronous compaction: seals the pending delta (if any, and if no
  // compaction is already in flight), builds the merged base on the
  // caller's thread (the build itself parallelizes on the pool), and
  // installs it. Returns false when there was nothing to do.
  bool compact() {
    auto job = live_.seal();
    if (!job) return false;
    run_compaction(*job);
    return true;
  }

  bool contains(std::uint32_t id) const {
    ViewPtr view = live_.current();
    return view != nullptr && view->contains(id);
  }

  // ------------------------------------------------------ rebuild API

  // Builds a new generation over `points` and publishes it atomically:
  // the live set becomes exactly `points` (ids 0..n-1) — any pending
  // delta is dropped and an in-flight compaction is orphaned. Blocks the
  // caller only; readers keep answering from the previous view
  // throughout. Returns the claimed version.
  std::uint64_t rebuild(std::span<const geo::Point<D>> points) {
    RebuildScope scope(*this);
    return rebuild_locked_free(points);
  }

  // Same, but runs on the thread pool via waitable submission and
  // returns immediately. Outstanding rebuilds are joined by
  // drain_rebuilds() / shutdown().
  void rebuild_async(std::vector<geo::Point<D>> points)
      SEPDC_EXCLUDES(rebuild_mu_) {
    rebuilds_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    par::Waitable handle =
        pool_.submit([this, pts = std::move(points)] {
          struct Dec {
            QueryBroker& b;
            ~Dec() {
              b.rebuilds_in_flight_.fetch_sub(1,
                                              std::memory_order_acq_rel);
            }
          } dec{*this};
          rebuild_locked_free(std::span<const geo::Point<D>>(pts));
        });
    LockGuard lock(rebuild_mu_);
    rebuild_handles_.push_back(std::move(handle));
  }

  // Waits for every outstanding rebuild_async; rethrows the first
  // rebuild error.
  void drain_rebuilds() SEPDC_EXCLUDES(rebuild_mu_) {
    std::vector<par::Waitable> handles;
    {
      LockGuard lock(rebuild_mu_);
      handles.swap(rebuild_handles_);
    }
    for (auto& h : handles) h.wait();
  }

  // ------------------------------------------------------ observation

  SnapshotPtr current_snapshot() const { return store_.current(); }
  ViewPtr live_view() const { return live_.current(); }
  std::uint64_t version() const { return store_.version(); }
  // Strictly monotone live-view publication counter: bumps on every
  // update, seal, compaction install, rebuild, and bootstrap.
  std::uint64_t live_seq() const {
    ViewPtr view = live_.current();
    return view != nullptr ? view->seq : 0;
  }
  std::size_t live_count() const {
    ViewPtr view = live_.current();
    return view != nullptr ? view->live_count() : 0;
  }
  ServiceStatsSnapshot stats() const { return stats_.snapshot(); }
  const BrokerConfig& config() const { return cfg_; }
  // The adaptive controller's current operating point (== the config
  // values when SloConfig::adaptive is off).
  std::chrono::microseconds current_flush_interval() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
        cur_flush_interval());
  }
  std::size_t current_max_batch() const {
    return cur_max_batch_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    bool is_knn = true;
    std::span<const geo::Point<D>> queries;
    std::span<const std::uint32_t> exclude;  // knn only; empty = none
    std::size_t k = 0;
    double radius = 0.0;
    SloClass slo = SloClass::kInteractive;
    bool has_deadline = false;
    typename Clock::time_point deadline{};
    typename Clock::time_point enqueued{};  // stamps queue_wait
    std::vector<KnnRow>* knn_out = nullptr;
    std::vector<RadiusRow>* radius_out = nullptr;
    bool done = false;
    std::exception_ptr error;
  };

  struct RebuildScope {
    QueryBroker& b;
    explicit RebuildScope(QueryBroker& broker) : b(broker) {
      b.rebuilds_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~RebuildScope() {
      b.rebuilds_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  std::uint64_t rebuild_locked_free(
      std::span<const geo::Point<D>> points,
      std::span<const std::uint32_t> external_ids = {}) {
    metrics::TraceSpan span(cfg_.trace, "rebuild", "service");
    ServiceStats::add(stats_.rebuilds, 1);
    std::uint64_t version = store_.claim_version();
    SnapshotPtr snap;
    if (points.empty()) {
      snap = SnapshotStore<D>::make_empty(version);
    } else {
      core::SeparatorIndexConfig icfg = cfg_.index;
      icfg.seed += version;  // decorrelate generations
      // An identity id map (ids == positions) collapses to the implicit
      // convention, mirroring run_compaction.
      std::shared_ptr<const std::vector<std::uint32_t>> ext;
      if (!external_ids.empty()) {
        bool identity = true;
        for (std::size_t i = 0; i < external_ids.size() && identity; ++i)
          identity = external_ids[i] == static_cast<std::uint32_t>(i);
        if (!identity)
          ext = std::make_shared<const std::vector<std::uint32_t>>(
              external_ids.begin(), external_ids.end());
      }
      snap = SnapshotStore<D>::build(points, icfg, pool_, version,
                                     cfg_.trace, std::move(ext));
    }
    store_.publish(snap, &stats_);
    // Monotone on both sides: if a newer rebuild already installed its
    // view, this one is discarded there too.
    live_.install_rebuilt(std::move(snap));
    return version;
  }

  // ----------------------------------------------------- compaction
  // See delta_tier.hpp for the seal/install protocol. The build runs
  // without any broker lock; only the final install takes the live
  // store's mutex for one publication.

  void maybe_compact(std::size_t delta_pending)
      SEPDC_EXCLUDES(rebuild_mu_) {
    if (cfg_.delta_compaction_threshold == 0 ||
        delta_pending < cfg_.delta_compaction_threshold)
      return;
    auto job = live_.seal();  // nullopt when one is already in flight
    if (!job) return;
    compactions_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    par::Waitable handle =
        pool_.submit([this, j = std::move(*job)] {
          struct Dec {
            QueryBroker& b;
            ~Dec() {
              b.compactions_in_flight_.fetch_sub(
                  1, std::memory_order_acq_rel);
            }
          } dec{*this};
          run_compaction(j);
        });
    LockGuard lock(rebuild_mu_);
    rebuild_handles_.push_back(std::move(handle));
  }

  void run_compaction(const typename LiveStore<D>::CompactionJob& job) {
    metrics::TraceSpan span(cfg_.trace, "compaction", "service");
    Timer timer;
    SnapshotPtr next;
    try {
      auto [ids, pts] = merge_live_points(job);
      std::uint64_t version = store_.claim_version();
      if (pts.empty()) {
        next = SnapshotStore<D>::make_empty(version);
      } else {
        core::SeparatorIndexConfig icfg = cfg_.index;
        icfg.seed += version;
        std::shared_ptr<const std::vector<std::uint32_t>> ext;
        bool identity = true;
        for (std::size_t i = 0; i < ids.size() && identity; ++i)
          identity = ids[i] == static_cast<std::uint32_t>(i);
        if (!identity)
          ext = std::make_shared<const std::vector<std::uint32_t>>(
              std::move(ids));
        next = SnapshotStore<D>::build(
            std::span<const geo::Point<D>>(pts), icfg, pool_, version,
            cfg_.trace, std::move(ext));
      }
    } catch (...) {
      // Fold the sealed updates back under the active ones: nothing is
      // lost, and a later trigger retries the compaction.
      live_.cancel_compaction(job);
      ServiceStats::add(stats_.compactions_abandoned, 1);
      throw;
    }
    if (live_.finish_compaction(job, next)) {
      store_.publish(std::move(next), &stats_);
      ServiceStats::add(stats_.compactions, 1);
      stats_.compaction_build.record_seconds(timer.seconds());
    } else {
      // A rebuild/bootstrap reset the world while we were building.
      ServiceStats::add(stats_.compactions_abandoned, 1);
    }
  }

  // The compacted point set: base minus the sealed tombstones, plus the
  // sealed adds, sorted by external id (both inputs already are, so one
  // two-pointer merge) — which is exactly the invariant the snapshot's
  // external-id map must satisfy.
  std::pair<std::vector<std::uint32_t>, std::vector<geo::Point<D>>>
  merge_live_points(const typename LiveStore<D>::CompactionJob& job) {
    const Snapshot& base = *job.base;
    const DeltaSegment<D>& sealed = *job.sealed;
    std::span<const std::uint32_t> add_ids = sealed.ids();
    std::span<const geo::Point<D>> add_pts = sealed.points();
    std::vector<std::uint32_t> ids;
    std::vector<geo::Point<D>> pts;
    ids.reserve(base.point_count + add_ids.size());
    pts.reserve(base.point_count + add_ids.size());
    std::span<const geo::Point<D>> base_pts =
        base.index != nullptr ? base.index->points()
                              : std::span<const geo::Point<D>>{};
    std::size_t j = 0;
    for (std::size_t i = 0; i < base_pts.size(); ++i) {
      const std::uint32_t ext = base.external_id(
          static_cast<std::uint32_t>(i));
      while (j < add_ids.size() && add_ids[j] < ext) {
        ids.push_back(add_ids[j]);
        pts.push_back(add_pts[j]);
        ++j;
      }
      if (sealed.has_tombstone(ext)) continue;
      // A sealed add can only reuse a base id it also tombstones, and
      // tombstoned base ids were skipped above — so no duplicates here.
      SEPDC_ASSERT(j >= add_ids.size() || add_ids[j] != ext);
      ids.push_back(ext);
      pts.push_back(base_pts[i]);
    }
    for (; j < add_ids.size(); ++j) {
      ids.push_back(add_ids[j]);
      pts.push_back(add_pts[j]);
    }
    return {std::move(ids), std::move(pts)};
  }

  bool under_rebuild() const {
    return rebuilds_in_flight_.load(std::memory_order_acquire) > 0;
  }

  static void sort_radius_row(RadiusRow& row) {
    std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
  }

  // Punt decision (client side, at submission): would the batch path —
  // the worst-case wait until the flush fires plus the EWMA-estimated
  // batch service time for everything already queued plus us — overrun
  // the deadline? The flush wait is the *remaining* portion of the
  // oldest pending request's interval (oldest enqueue + flush interval
  // - now, clamped to [0, interval]), read from the atomic mirror the
  // enqueue/flush paths maintain — charging every submission the full
  // interval, as this used to, systematically over-punts under load: a
  // queue that has already aged 150 of its 200 us only makes a new
  // arrival wait 50 us more. An empty queue charges the full interval
  // (this submission would start the clock itself).
  bool should_punt(typename Clock::time_point now,
                   typename Clock::time_point deadline,
                   std::size_t nqueries) const {
    double waiting = static_cast<double>(
        pending_queries_.load(std::memory_order_relaxed) + nqueries);
    double est_us =
        stats_.est_batch_us_per_query.load(std::memory_order_relaxed) *
        waiting;
    const std::chrono::nanoseconds interval = cur_flush_interval();
    std::chrono::nanoseconds wait = interval;
    const std::int64_t oldest =
        oldest_enqueue_ns_.load(std::memory_order_relaxed);
    if (oldest != kNoOldest) {
      const std::int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now.time_since_epoch())
              .count();
      wait = std::chrono::nanoseconds(std::clamp<std::int64_t>(
          oldest + interval.count() - now_ns, 0, interval.count()));
    }
    auto eta = now + wait +
               std::chrono::microseconds(
                   static_cast<std::int64_t>(est_us));
    return eta > deadline;
  }

  // Mutually exclusive per-query outcomes (service_stats.hpp taxonomy):
  // batched + punted + fast_lane == submitted.
  enum class Outcome { kBatched, kPunted, kFastLane };

  void account_answered(std::size_t nqueries, Outcome outcome,
                        bool is_knn, bool has_deadline,
                        typename Clock::time_point deadline) {
    switch (outcome) {
      case Outcome::kBatched:
        ServiceStats::add(stats_.batched, nqueries);
        break;
      case Outcome::kPunted:
        ServiceStats::add(stats_.punted, nqueries);
        break;
      case Outcome::kFastLane:
        ServiceStats::add(stats_.fast_lane, nqueries);
        break;
    }
    ServiceStats::add(is_knn ? stats_.knn_answered : stats_.radius_answered,
                      nqueries);
    if (under_rebuild()) ServiceStats::add(stats_.rebuilt_under, nqueries);
    if (has_deadline && Clock::now() > deadline)
      ServiceStats::add(stats_.expired, nqueries);
  }

  // ------------------------------------------------ SLO routing helpers

  // The budget the routing layer actually uses: an explicit budget wins;
  // kNoDeadline falls back to the class default (itself kNoDeadline
  // unless configured).
  std::chrono::microseconds effective_budget(
      std::chrono::microseconds budget, SloClass cls) const {
    if (budget != kNoDeadline) return budget;
    return cls == SloClass::kInteractive ? cfg_.slo.interactive_budget
                                         : cfg_.slo.bulk_budget;
  }

  // Admission control. Runs before the request is accounted as
  // submitted — a shed request increments only `shed` (plus its class
  // split), so callers reconcile attempts == submitted + shed while the
  // answer-side invariants (batched + punted + fast_lane == submitted)
  // are untouched. Two prices, both opt-in:
  //   * cost-based — a request whose EWMA-estimated backlog
  //     (est_batch_us_per_query x queued-plus-incoming queries) exceeds
  //     factor x its effective budget is hopeless and fails fast. Bulk
  //     uses shed_factor, interactive uses interactive_shed_factor.
  //   * queue-depth backstop — a budget-less bulk request carries no
  //     price, so once the pending queue holds bulk_queue_backstop
  //     queries it is shed on depth alone (this used to be the unbounded
  //     growth path: budget-less bulk was never shed at all).
  void admit_or_shed(SloClass cls, std::chrono::microseconds budget,
                     std::size_t nqueries) {
    const bool bulk = cls == SloClass::kBulk;
    if (bulk && budget <= kNoDeadline) {
      const std::size_t backstop = cfg_.slo.bulk_queue_backstop;
      if (backstop > 0 &&
          pending_queries_.load(std::memory_order_relaxed) + nqueries >
              backstop)
        shed(cls, nqueries,
             "budget-less bulk request shed: pending queue exceeds "
             "bulk_queue_backstop; retry with backoff");
      return;
    }
    const double factor = bulk ? cfg_.slo.shed_factor
                               : cfg_.slo.interactive_shed_factor;
    if (factor <= 0.0 || budget <= kNoDeadline) return;
    const double backlog_us =
        stats_.est_batch_us_per_query.load(std::memory_order_relaxed) *
        static_cast<double>(
            pending_queries_.load(std::memory_order_relaxed) + nqueries);
    if (backlog_us <=
        factor * static_cast<double>(budget.count()))
      return;
    shed(cls, nqueries,
         bulk ? "bulk-class request shed: estimated backlog exceeds "
                "the admission budget multiple; retry with backoff"
              : "interactive request shed: estimated backlog already "
                "exceeds the budget multiple; retry with backoff");
  }

  [[noreturn]] void shed(SloClass cls, std::size_t nqueries,
                         const char* message) {
    ServiceStats::add(stats_.shed, nqueries);
    ServiceStats::add(cls == SloClass::kInteractive
                          ? stats_.shed_interactive
                          : stats_.shed_bulk,
                      nqueries);
    throw QueryError("overload", message);
  }

  // Idle fast-lane gate: interactive class, empty queue, no flush in
  // flight. Both loads are heuristics — a racing enqueue or flush swap
  // only changes which exact path answers, never the answer — so
  // relaxed reads suffice.
  bool fast_lane_open(SloClass cls) const {
    return cfg_.slo.fast_lane && cls == SloClass::kInteractive &&
           pending_queries_.load(std::memory_order_relaxed) == 0 &&
           !flush_in_flight_.load(std::memory_order_relaxed);
  }

  // Translate a client (external) exclude id into the base index's
  // internal id space; absent ids come back as kNoId == kNoExclude, so
  // the base simply has nothing to skip.
  static std::uint32_t base_exclude(const Snapshot& base,
                                    std::uint32_t ext) {
    return ext == kNoExclude ? kNoExclude : base.internal_id(ext);
  }

  // One punted/direct k-NN answer against a coherent live view: one
  // single-pass index query with the tombstone over-fetch margin, then
  // the sorted merge with the delta scans.
  static KnnRow answer_knn_direct(const LiveView<D>& view,
                                  const geo::Point<D>& q, std::size_t k,
                                  std::uint32_t exclude) {
    KnnRow base_rows;
    if (view.has_base()) {
      const std::size_t kb = k + view.tombstone_count();
      base_rows = view.base->index
                      ->knn(q, kb, base_exclude(*view.base, exclude))
                      .take_sorted();
    }
    return merge_knn_rows(view, q, k, exclude, base_rows);
  }

  // Answers a span of k-NN queries inline on the caller's thread via
  // the exact direct path — shared by punting and the fast lane, which
  // differ only in trace label, latency histogram, and outcome counter.
  void knn_inline(std::span<const geo::Point<D>> queries, std::size_t k,
                  std::span<const std::uint32_t> exclude,
                  std::vector<KnnRow>& out, Outcome outcome,
                  bool has_deadline,
                  typename Clock::time_point deadline) {
    const bool fast = outcome == Outcome::kFastLane;
    metrics::TraceSpan span(cfg_.trace,
                            fast ? "fast_lane_knn" : "punt_knn",
                            "service");
    Timer timer;
    ViewPtr view = live_.current();
    for (std::size_t i = 0; i < queries.size(); ++i)
      out[i] = answer_knn_direct(
          *view, queries[i], k,
          exclude.empty() ? kNoExclude : exclude[i]);
    (fast ? stats_.fast_lane_latency : stats_.punt_latency)
        .record_seconds(timer.seconds(), queries.size());
    account_answered(queries.size(), outcome, /*is_knn=*/true,
                     has_deadline, deadline);
  }

  void radius_inline(std::span<const geo::Point<D>> queries, double r,
                     std::vector<RadiusRow>& out, Outcome outcome,
                     bool has_deadline,
                     typename Clock::time_point deadline) {
    const bool fast = outcome == Outcome::kFastLane;
    metrics::TraceSpan span(cfg_.trace,
                            fast ? "fast_lane_radius" : "punt_radius",
                            "service");
    Timer timer;
    ViewPtr view = live_.current();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (view->has_base()) {
        view->base->index->for_each_in_ball(
            queries[i], r, [&](std::uint32_t internal, double d2) {
              const std::uint32_t ext =
                  view->base->external_id(internal);
              if (!view->base_masked(ext))
                out[i].emplace_back(ext, d2);
            });
      }
      view->for_each_delta_in_ball(
          queries[i], r, [&](std::uint32_t id, double d2) {
            out[i].emplace_back(id, d2);
          });
      sort_radius_row(out[i]);
    }
    (fast ? stats_.fast_lane_latency : stats_.punt_latency)
        .record_seconds(timer.seconds(), queries.size());
    account_answered(queries.size(), outcome, /*is_knn=*/false,
                     has_deadline, deadline);
  }

  std::vector<KnnRow> run_knn(std::span<const geo::Point<D>> queries,
                              std::size_t k,
                              std::chrono::microseconds budget,
                              std::span<const std::uint32_t> exclude,
                              SloClass cls, bool bulk_entry) {
    SEPDC_CHECK_MSG(exclude.empty() || exclude.size() == queries.size(),
                    "broker knn: exclude must be empty or per-query");
    // Validate before any accounting: an invalid query is rejected at
    // the door, never counted as submitted, never enqueued.
    if (k == 0) throw QueryError("k", "k-NN requires k >= 1");
    if (budget < kNoDeadline)
      throw QueryError("budget",
                       "budget must be >= 0; only 0 (kNoDeadline) means "
                       "no deadline");
    std::vector<KnnRow> out(queries.size());
    if (queries.empty()) return out;
    budget = effective_budget(budget, cls);
    admit_or_shed(cls, budget, queries.size());
    ServiceStats::add(stats_.submitted, queries.size());
    ServiceStats::add(stats_.knn_submitted, queries.size());
    ServiceStats::add(cls == SloClass::kInteractive
                          ? stats_.class_interactive
                          : stats_.class_bulk,
                      queries.size());
    if (bulk_entry) ServiceStats::add(stats_.bulk_requests, 1);

    const bool has_deadline = budget > kNoDeadline;
    auto now = Clock::now();
    auto deadline =
        has_deadline ? now + budget : Clock::time_point::max();
    if (fast_lane_open(cls)) {
      knn_inline(queries, k, exclude, out, Outcome::kFastLane,
                 has_deadline, deadline);
      return out;
    }
    if (has_deadline && should_punt(now, deadline, queries.size())) {
      knn_inline(queries, k, exclude, out, Outcome::kPunted,
                 has_deadline, deadline);
      return out;
    }

    Pending req;
    req.is_knn = true;
    req.queries = queries;
    req.exclude = exclude;
    req.k = k;
    req.slo = cls;
    req.has_deadline = has_deadline;
    req.deadline = deadline;
    req.knn_out = &out;
    enqueue_and_wait(req);
    return out;
  }

  std::vector<RadiusRow> run_radius(
      std::span<const geo::Point<D>> queries, double r,
      std::chrono::microseconds budget, SloClass cls, bool bulk_entry) {
    // Validate before any accounting. The finite check is load-bearing:
    // execute() groups radius requests by == on the double, and NaN
    // compares unequal to everything — a NaN request would never join a
    // group (including its own) and would silently return garbage.
    if (!(std::isfinite(r) && r >= 0.0))
      throw QueryError("radius", "must be finite and >= 0");
    if (budget < kNoDeadline)
      throw QueryError("budget",
                       "budget must be >= 0; only 0 (kNoDeadline) means "
                       "no deadline");
    std::vector<RadiusRow> out(queries.size());
    if (queries.empty()) return out;
    budget = effective_budget(budget, cls);
    admit_or_shed(cls, budget, queries.size());
    ServiceStats::add(stats_.submitted, queries.size());
    ServiceStats::add(stats_.radius_submitted, queries.size());
    ServiceStats::add(cls == SloClass::kInteractive
                          ? stats_.class_interactive
                          : stats_.class_bulk,
                      queries.size());
    if (bulk_entry) ServiceStats::add(stats_.bulk_requests, 1);

    const bool has_deadline = budget > kNoDeadline;
    auto now = Clock::now();
    auto deadline =
        has_deadline ? now + budget : Clock::time_point::max();
    if (fast_lane_open(cls)) {
      radius_inline(queries, r, out, Outcome::kFastLane, has_deadline,
                    deadline);
      return out;
    }
    if (has_deadline && should_punt(now, deadline, queries.size())) {
      radius_inline(queries, r, out, Outcome::kPunted, has_deadline,
                    deadline);
      return out;
    }

    Pending req;
    req.is_knn = false;
    req.queries = queries;
    req.radius = r;
    req.slo = cls;
    req.has_deadline = has_deadline;
    req.deadline = deadline;
    req.radius_out = &out;
    enqueue_and_wait(req);
    return out;
  }

  // Appends the request and blocks until the flusher marks it done.
  // Waits are explicit predicate loops so the guarded reads stay inside
  // this function, where the analysis knows mu_ is held.
  void enqueue_and_wait(Pending& req) SEPDC_EXCLUDES(mu_) {
    UniqueLock lock(mu_);
    SEPDC_CHECK_MSG(!stopping_, "query submitted to a stopped broker");
    req.enqueued = Clock::now();
    if (queue_.empty()) {
      oldest_enqueue_ = req.enqueued;
      oldest_enqueue_ns_.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              req.enqueued.time_since_epoch())
              .count(),
          std::memory_order_relaxed);
    }
    queue_.push_back(&req);
    pending_queries_.fetch_add(req.queries.size(),
                               std::memory_order_relaxed);
    queue_cv_.notify_one();
    while (!req.done) done_cv_.wait(lock);
    if (req.error) std::rethrow_exception(req.error);
  }

  void flusher_loop() SEPDC_EXCLUDES(mu_) {
    UniqueLock lock(mu_);
    for (;;) {
      if (queue_.empty()) {
        if (stopping_) return;
        while (!stopping_ && queue_.empty()) queue_cv_.wait(lock);
        continue;
      }
      const std::size_t max_batch =
          cur_max_batch_.load(std::memory_order_relaxed);
      if (pending_queries_.load(std::memory_order_relaxed) < max_batch &&
          !stopping_) {
        auto flush_at = oldest_enqueue_ + cur_flush_interval();
        while (!stopping_ &&
               pending_queries_.load(std::memory_order_relaxed) <
                   max_batch) {
          if (queue_cv_.wait_until(lock, flush_at) ==
              std::cv_status::timeout)
            break;
        }
      }
      // Label the flush by what actually triggered it, decided at swap
      // time with priority size > stop > deadline: a stop racing an
      // already-full queue is still a size flush, but a stop with the
      // size condition unmet counts as flush_by_stop — never
      // flush_by_size, which used to absorb shutdown flushes and break
      // the trigger taxonomy (flush_by_size + flush_by_deadline +
      // flush_by_stop == flushes).
      std::atomic<std::size_t>* trigger = &stats_.flush_by_deadline;
      if (pending_queries_.load(std::memory_order_relaxed) >= max_batch)
        trigger = &stats_.flush_by_size;
      else if (stopping_)
        trigger = &stats_.flush_by_stop;
      std::vector<Pending*> batch;
      batch.swap(queue_);
      pending_queries_.store(0, std::memory_order_relaxed);
      oldest_enqueue_ns_.store(kNoOldest, std::memory_order_relaxed);
      ServiceStats::add(stats_.flushes, 1);
      ServiceStats::add(*trigger, 1);

      flush_in_flight_.store(true, std::memory_order_relaxed);
      lock.unlock();
      execute(batch);
      lock.lock();
      flush_in_flight_.store(false, std::memory_order_relaxed);
      for (Pending* r : batch) r->done = true;
      done_cv_.notify_all();
      maybe_retune();
    }
  }

  // AIMD retune on the flusher thread, under mu_, every control_period
  // flushes. Steers on the *windowed* queue-wait p99 (delta_since of
  // the cumulative histogram, so one cold-start flush cannot dominate
  // forever): an overshoot of the target halves both knobs
  // (multiplicative decrease — drain queueing fast), an undershoot
  // below half the target regrows both by ~25% (additive increase —
  // reclaim batching efficiency slowly), in-band holds. Both knobs are
  // clamped to the configured [min, max].
  void maybe_retune() SEPDC_REQUIRES(mu_) {
    if (!cfg_.slo.adaptive) return;
    if (++flushes_since_retune_ < cfg_.slo.control_period) return;
    flushes_since_retune_ = 0;
    // Rebuild/compaction pressure: while a background build holds the
    // pool, batch service times are about to degrade — but the windowed
    // p99 only shows the damage an entire window later, so steering on
    // it kept *relaxing* into the stall. Tighten pre-emptively instead:
    // halve both knobs every control period the pressure persists (the
    // normal relax path regrows them once the build drains).
    if (rebuilds_in_flight_.load(std::memory_order_acquire) > 0 ||
        compactions_in_flight_.load(std::memory_order_acquire) > 0) {
      metrics::TraceSpan span(cfg_.trace, "slo_controller", "service");
      ServiceStats::add(stats_.controller_updates, 1);
      ServiceStats::add(stats_.controller_tighten, 1);
      ServiceStats::add(stats_.controller_pressure_tighten, 1);
      std::uint64_t interval_ns =
          cur_flush_interval_ns_.load(std::memory_order_relaxed) / 2;
      std::size_t max_batch =
          cur_max_batch_.load(std::memory_order_relaxed) / 2;
      interval_ns =
          std::clamp(interval_ns, ns_count(cfg_.slo.min_flush_interval),
                     ns_count(cfg_.slo.max_flush_interval));
      max_batch = std::clamp(max_batch, cfg_.slo.min_batch,
                             cfg_.slo.max_batch);
      cur_flush_interval_ns_.store(interval_ns,
                                   std::memory_order_relaxed);
      cur_max_batch_.store(max_batch, std::memory_order_relaxed);
      ServiceStats::set_gauge(
          stats_.cur_flush_interval_us,
          static_cast<std::size_t>(interval_ns / 1000));
      ServiceStats::set_gauge(stats_.cur_max_batch, max_batch);
      return;
    }
    metrics::HistogramSnapshot cur = stats_.queue_wait.snapshot();
    metrics::HistogramSnapshot window =
        cur.delta_since(ctl_prev_queue_wait_);
    ctl_prev_queue_wait_ = std::move(cur);
    if (window.count() == 0) return;  // nothing batched this window
    metrics::TraceSpan span(cfg_.trace, "slo_controller", "service");
    ServiceStats::add(stats_.controller_updates, 1);
    const double wait_p99_us = window.p99_us();
    const double target_us =
        static_cast<double>(cfg_.slo.target_queue_wait.count());
    std::uint64_t interval_ns =
        cur_flush_interval_ns_.load(std::memory_order_relaxed);
    std::size_t max_batch =
        cur_max_batch_.load(std::memory_order_relaxed);
    if (wait_p99_us > target_us) {
      interval_ns /= 2;
      max_batch /= 2;
      ServiceStats::add(stats_.controller_tighten, 1);
    } else if (wait_p99_us < target_us / 2.0) {
      interval_ns += interval_ns / 4 + 1;
      max_batch += max_batch / 4 + 1;
      ServiceStats::add(stats_.controller_relax, 1);
    } else {
      return;  // in-band: hold the operating point
    }
    interval_ns =
        std::clamp(interval_ns, ns_count(cfg_.slo.min_flush_interval),
                   ns_count(cfg_.slo.max_flush_interval));
    max_batch = std::clamp(max_batch, cfg_.slo.min_batch,
                           cfg_.slo.max_batch);
    cur_flush_interval_ns_.store(interval_ns, std::memory_order_relaxed);
    cur_max_batch_.store(max_batch, std::memory_order_relaxed);
    ServiceStats::set_gauge(stats_.cur_flush_interval_us,
                            static_cast<std::size_t>(interval_ns / 1000));
    ServiceStats::set_gauge(stats_.cur_max_batch, max_batch);
  }

  // Seeds the operating point from the config, validated against and
  // clamped into the SLO bounds when the adaptive controller is on.
  void init_operating_point() {
    std::uint64_t interval_ns = ns_count(cfg_.flush_interval);
    std::size_t max_batch = cfg_.max_batch;
    if (cfg_.slo.adaptive) {
      SEPDC_CHECK_MSG(cfg_.slo.min_flush_interval.count() > 0 &&
                          cfg_.slo.min_flush_interval <=
                              cfg_.slo.max_flush_interval,
                      "slo: need 0 < min_flush_interval <= max");
      SEPDC_CHECK_MSG(cfg_.slo.min_batch >= 1 &&
                          cfg_.slo.min_batch <= cfg_.slo.max_batch,
                      "slo: need 1 <= min_batch <= max_batch");
      SEPDC_CHECK_MSG(cfg_.slo.control_period >= 1,
                      "slo: control_period must be >= 1");
      interval_ns =
          std::clamp(interval_ns, ns_count(cfg_.slo.min_flush_interval),
                     ns_count(cfg_.slo.max_flush_interval));
      max_batch = std::clamp(max_batch, cfg_.slo.min_batch,
                             cfg_.slo.max_batch);
    }
    cur_flush_interval_ns_.store(interval_ns, std::memory_order_relaxed);
    cur_max_batch_.store(max_batch, std::memory_order_relaxed);
    ServiceStats::set_gauge(stats_.cur_flush_interval_us,
                            static_cast<std::size_t>(interval_ns / 1000));
    ServiceStats::set_gauge(stats_.cur_max_batch, max_batch);
  }

  static std::uint64_t ns_count(std::chrono::microseconds us) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(us).count());
  }

  std::chrono::nanoseconds cur_flush_interval() const {
    return std::chrono::nanoseconds(static_cast<std::int64_t>(
        cur_flush_interval_ns_.load(std::memory_order_relaxed)));
  }

  // Runs one micro-batch against the current snapshot. Requests are
  // grouped by (kind, parameter) and each group goes through the batched
  // index kernel in one call; per-request rows are scattered back in
  // place. Called with mu_ released — clients are blocked on done_cv_,
  // so every Pending and its output vector stays alive.
  void execute(std::vector<Pending*>& batch) SEPDC_EXCLUDES(mu_) {
    metrics::TraceSpan flush_span(cfg_.trace, "flush", "service");
    Timer timer;
    // Queue wait is enqueue -> flush swap, recorded here (the swap
    // happened moments ago in flusher_loop) weighted per query so the
    // histogram count reconciles with the `batched` counter. flush_size
    // counts *all* queries in the batch — errored requests included, to
    // match account_answered below, which also counts them.
    auto swap_now = Clock::now();
    std::size_t batch_queries = 0;
    for (Pending* r : batch) {
      stats_.queue_wait.record_seconds(
          std::chrono::duration<double>(swap_now - r->enqueued).count(),
          r->queries.size());
      batch_queries += r->queries.size();
    }
    stats_.flush_size.record(batch_queries);
    // One coherent live view for the whole flush: every request in this
    // batch answers as of the same (base, delta) generation.
    ViewPtr view = live_.current();
    std::size_t total = 0;
    try {
      // --- k-NN groups, keyed by k.
      std::vector<std::pair<std::size_t, std::vector<Pending*>>> kgroups;
      std::vector<std::pair<double, std::vector<Pending*>>> rgroups;
      for (Pending* r : batch) {
        if (r->is_knn) {
          auto it = std::find_if(
              kgroups.begin(), kgroups.end(),
              [&](const auto& g) { return g.first == r->k; });
          if (it == kgroups.end()) {
            kgroups.push_back({r->k, {r}});
          } else {
            it->second.push_back(r);
          }
        } else {
          auto it = std::find_if(
              rgroups.begin(), rgroups.end(),
              [&](const auto& g) { return g.first == r->radius; });
          if (it == rgroups.end()) {
            rgroups.push_back({r->radius, {r}});
          } else {
            it->second.push_back(r);
          }
        }
      }

      const bool has_base = view->has_base();
      const std::size_t tomb_margin = view->tombstone_count();
      const bool plain = view->active->empty() &&
                         view->sealed == nullptr &&
                         view->base->external_ids == nullptr;

      for (auto& [k, reqs] : kgroups) {
        metrics::TraceSpan span(cfg_.trace, "batch_knn", "service");
        std::size_t count = 0;
        bool any_exclude = false;
        for (Pending* r : reqs) {
          count += r->queries.size();
          any_exclude |= !r->exclude.empty();
        }
        std::vector<geo::Point<D>> flat;
        flat.reserve(count);
        std::vector<std::uint32_t> flat_exclude;
        if (any_exclude) flat_exclude.reserve(count);
        for (Pending* r : reqs) {
          flat.insert(flat.end(), r->queries.begin(), r->queries.end());
          if (any_exclude) {
            for (std::size_t i = 0; i < r->queries.size(); ++i)
              flat_exclude.push_back(
                  has_base
                      ? base_exclude(*view->base,
                                     r->exclude.empty() ? kNoExclude
                                                        : r->exclude[i])
                      : kNoExclude);
          }
        }
        // Tombstones can shadow up to tomb_margin base hits; over-fetch
        // so filtering still leaves k live candidates.
        std::vector<KnnRow> rows;
        if (has_base) {
          rows = view->base->index->batch_knn(
              pool_, std::span<const geo::Point<D>>(flat),
              k + tomb_margin,
              std::span<const std::uint32_t>(flat_exclude));
        } else {
          rows.resize(flat.size());
        }
        std::size_t offset = 0;
        for (Pending* r : reqs) {
          for (std::size_t i = 0; i < r->queries.size(); ++i) {
            if (plain) {
              // Steady state (no delta, identity ids): the batched row
              // is the answer, bit-for-bit as before.
              (*r->knn_out)[i] = std::move(rows[offset + i]);
            } else {
              (*r->knn_out)[i] = merge_knn_rows(
                  *view, r->queries[i], k,
                  r->exclude.empty() ? kNoExclude : r->exclude[i],
                  rows[offset + i]);
            }
          }
          offset += r->queries.size();
        }
        total += count;
      }

      // --- radius groups, keyed by the radius value.
      for (auto& [radius, reqs] : rgroups) {
        metrics::TraceSpan span(cfg_.trace, "batch_radius", "service");
        std::vector<geo::Point<D>> flat;
        for (Pending* r : reqs)
          flat.insert(flat.end(), r->queries.begin(), r->queries.end());
        std::vector<RadiusRow> rows;
        if (has_base) {
          rows = view->base->index->batch_radius(
              pool_, std::span<const geo::Point<D>>(flat), radius);
        } else {
          rows.resize(flat.size());
        }
        std::size_t offset = 0;
        for (Pending* r : reqs) {
          for (std::size_t i = 0; i < r->queries.size(); ++i) {
            RadiusRow& row = rows[offset + i];
            if (!plain) {
              // Map internal -> external in place, dropping masked hits,
              // then append the delta's live hits before the final sort.
              std::size_t keep = 0;
              for (const auto& [internal, d2] : row) {
                const std::uint32_t ext =
                    view->base->external_id(internal);
                if (view->base_masked(ext)) continue;
                row[keep++] = {ext, d2};
              }
              row.resize(keep);
              view->for_each_delta_in_ball(
                  r->queries[i], radius,
                  [&](std::uint32_t id, double d2) {
                    row.emplace_back(id, d2);
                  });
            }
            sort_radius_row(row);
            (*r->radius_out)[i] = std::move(row);
          }
          offset += r->queries.size();
        }
        total += flat.size();
      }
    } catch (...) {
      // A failed batch fails every request in it; clients rethrow.
      auto err = std::current_exception();
      for (Pending* r : batch)
        if (!r->error) r->error = err;
    }

    for (Pending* r : batch)
      account_answered(r->queries.size(), Outcome::kBatched, r->is_knn,
                       r->has_deadline, r->deadline);
    ServiceStats::bump_max(stats_.max_flush_queries, total);
    stats_.batch_execute.record_seconds(timer.seconds());
    if (total > 0)
      stats_.observe_batch_cost(timer.seconds() * 1e6 /
                                static_cast<double>(total));
  }

  const BrokerConfig cfg_;
  par::ThreadPool& pool_;
  SnapshotStore<D> store_;
  // The live (base, sealed, active) view queries answer from. store_
  // remains the version authority (compactions and rebuilds publish to
  // both; both sides are monotone, so they can never disagree on order).
  LiveStore<D> live_;
  ServiceStats stats_;

  // Lock protocol (machine-checked under clang -Wthread-safety):
  //   mu_ guards the pending queue, the oldest-enqueue timestamp, and
  //   the stop flag. The flusher swaps the queue out under mu_, then
  //   answers the batch with mu_ *released* (execute() is EXCLUDES(mu_)),
  //   so clients can keep enqueueing during a flush. pending_queries_ is
  //   an atomic mirror of the queued-query count so should_punt() can
  //   read it without taking mu_ on the client hot path.
  Mutex mu_;
  CondVar queue_cv_;  // wakes the flusher
  CondVar done_cv_;   // wakes waiting clients
  std::vector<Pending*> queue_ SEPDC_GUARDED_BY(mu_);
  typename Clock::time_point oldest_enqueue_ SEPDC_GUARDED_BY(mu_);
  std::atomic<std::size_t> pending_queries_{0};
  bool stopping_ SEPDC_GUARDED_BY(mu_) = false;

  // SLO routing state. The operating point (flush interval, batch cap)
  // is a pair of relaxed atomics: written by the ctor and by the
  // controller (flusher thread, under mu_), read lock-free by clients
  // (should_punt) and the flusher itself. oldest_enqueue_ns_ mirrors
  // oldest_enqueue_ for the punt path exactly the way pending_queries_
  // mirrors the queue size: written only under mu_ (enqueue sets it,
  // the flush swap resets it to kNoOldest), read relaxed; a slightly
  // stale value shifts a punt/fast-lane decision, never an answer.
  // flush_in_flight_ closes the fast lane while execute() runs so an
  // inline answer cannot overlap a racing flush on a 1-core box and
  // double the flush's tail.
  static constexpr std::int64_t kNoOldest =
      std::numeric_limits<std::int64_t>::max();
  std::atomic<std::uint64_t> cur_flush_interval_ns_{0};
  std::atomic<std::size_t> cur_max_batch_{1};
  std::atomic<std::int64_t> oldest_enqueue_ns_{kNoOldest};
  std::atomic<bool> flush_in_flight_{false};
  // Controller scratch, touched only by the flusher under mu_.
  std::size_t flushes_since_retune_ SEPDC_GUARDED_BY(mu_) = 0;
  metrics::HistogramSnapshot ctl_prev_queue_wait_ SEPDC_GUARDED_BY(mu_);
  std::thread flusher_ SEPDC_UNGUARDED_OK(
      "started by the ctor before the broker is visible to clients; "
      "joined in stop() after stopping_ is published under mu_");

  // rebuild_mu_ guards only the Waitable handles of in-flight async
  // rebuilds and background compactions; the snapshot handoff itself is
  // lock-free (SnapshotStore's CAS publishes outside any lock — see
  // snapshot.hpp) and the live-view handoff takes only the LiveStore's
  // own mutex. mu_ and rebuild_mu_ are never nested.
  std::atomic<std::size_t> rebuilds_in_flight_{0};
  std::atomic<std::size_t> compactions_in_flight_{0};
  Mutex rebuild_mu_;
  std::vector<par::Waitable> rebuild_handles_ SEPDC_GUARDED_BY(rebuild_mu_);
};

}  // namespace sepdc::service
