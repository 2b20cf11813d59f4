// QueryBroker — a concurrent query front-end over the separator index.
//
// Any number of client threads call knn()/radius() (single or bulk).
// Every call is answered on the caller's own thread against the one
// live view it takes at entry: a single-pass index query
// (SeparatorIndex::knn / for_each_in_ball) merged with the delta tier.
// A bulk call runs that same per-query body under par::parallel_for,
// one block per pool thread but never fewer than kMinBlockQueries
// queries a block: a single query or a bulk of up to 8 stays on the
// caller's thread, and a larger bulk spreads over the shared pool with
// the caller taking the first block. Nothing queues and nothing parks,
// so a helping wait cannot deadlock.
//
// There is no micro-batching path. The Punting Lemma (§4) says to run
// the preferred algorithm only while it can win and otherwise take the
// fallback at once; once the fallback is the same index query the batch
// path runs, the batch path has nothing left to win. Measured on a
// 4-core host (perfbench serve_read, traced), a micro-batched k-NN
// under load answered at p50 331 us against 4.9 us for a direct index
// query; answered inline, the same load reads p50 5.3 us.
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
// Accounting (service_stats.hpp): every answered query counts in
// `punted` — "answered by a direct index call" — and in punt_latency;
// `batched`, `fast_lane` and `shed` stay zero. A budget never changes
// the path: it is validated at the door and marks an answer produced
// after its deadline as `expired`.
//
// Result contracts:
//   knn rows    — exactly k nearest (fewer iff the snapshot has fewer
//                 candidates), sorted by (dist2, id); ties by lower id.
//   radius rows — every point with distance(q, p) <= r (closed ball),
//                 sorted by (dist2, id).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/separator_index.hpp"
#include "parallel/parallel_for.hpp"
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

// Ignored. Every query is answered inline on the caller's thread, so an
// idle-broker fast lane has nothing to switch on; the member stays so
// that configurations which set it keep compiling.
struct SloConfig {
  bool fast_lane = false;
};

struct BrokerConfig {
  // Build configuration for every snapshot generation (the seed is
  // perturbed per generation so rebuilds decorrelate).
  core::SeparatorIndexConfig index;
  // Optional phase tracing (see support/trace.hpp): when set, queries,
  // snapshot builds and compactions emit spans. Null = off, zero
  // overhead. The recorder must outlive the broker.
  metrics::TraceRecorder* trace = nullptr;
  // Seal the delta and compact it into a fresh base generation (on the
  // pool, in the background) once this many pending updates accumulate.
  // 0 disables the automatic trigger — compact() still works on demand.
  std::size_t delta_compaction_threshold = 256;
  SloConfig slo;  // ignored; see SloConfig
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
  // Only kNoDeadline *exactly* means "no deadline: never expires". A
  // negative budget is not a deadline the service can honor and is
  // rejected at the door with QueryError("budget") — before any counter
  // moves — matching the k == 0 / non-finite-radius precedent.
  static constexpr std::chrono::microseconds kNoDeadline{0};

  // An empty `points` span starts the service delta-only: generation 1
  // is the empty base and every answer comes from the live tier until
  // the first compaction builds a real index.
  QueryBroker(std::span<const geo::Point<D>> points,
              const BrokerConfig& cfg, par::ThreadPool& pool)
      : cfg_(cfg), pool_(pool) {
    rebuild(points);  // generation 1, synchronous: never serve view-less
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
    SEPDC_CHECK_MSG(external_ids.size() == points.size(),
                    "external_ids must be parallel to points");
    RebuildScope scope(*this);
    rebuild_locked_free(points, external_ids);
  }

  // Cold-start from a snapshot file (docs/persistence.md): generation 1
  // is mmap-loaded instead of built, so time-to-first-answer is bounded
  // by validation + page faults, not by an index build. Throws
  // io::SnapshotIoError — and starts nothing — on any file defect.
  // rebuild()/rebuild_async() work as usual afterwards.
  QueryBroker(const std::string& snapshot_path, const BrokerConfig& cfg,
              par::ThreadPool& pool)
      : cfg_(cfg), pool_(pool) {
    io::LoadedDelta<D> delta;
    store_.bootstrap_from(snapshot_path, &stats_, cfg_.trace, &delta);
    // Replay the file's pending delta into the live tier: a save taken
    // with updates in flight bootstraps to the identical live set.
    live_.reset_with_delta(store_.current(), std::move(delta.ids),
                           std::move(delta.points),
                           std::move(delta.tombstones));
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

  // Waits for outstanding async rebuilds and background compactions.
  ~QueryBroker() {
    try {
      drain_rebuilds();
    } catch (...) {
      // Teardown must not throw; rebuild failures surface via
      // drain_rebuilds() when called explicitly.
    }
  }

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  // ------------------------------------------------------- client API
  // All entry points are safe to call from any number of threads, and
  // all answer on the calling thread.

  KnnRow knn(const geo::Point<D>& q, std::size_t k,
             std::chrono::microseconds budget = kNoDeadline,
             std::uint32_t exclude = kNoExclude) {
    std::uint32_t ex = exclude;
    auto rows = run_knn({&q, 1}, k, budget,
                        exclude == kNoExclude
                            ? std::span<const std::uint32_t>{}
                            : std::span<const std::uint32_t>{&ex, 1},
                        /*bulk_entry=*/false);
    return std::move(rows[0]);
  }

  // Bulk k-NN: one call covering many queries, all answered against the
  // same live view. `exclude`, when non-empty, carries one point id per
  // query to skip — pass the identity to compute an all-k-NN over the
  // indexed points.
  std::vector<KnnRow> bulk_knn(std::span<const geo::Point<D>> queries,
                               std::size_t k,
                               std::chrono::microseconds budget =
                                   kNoDeadline,
                               std::span<const std::uint32_t> exclude = {}) {
    return run_knn(queries, k, budget, exclude, /*bulk_entry=*/true);
  }

  RadiusRow radius(const geo::Point<D>& q, double r,
                   std::chrono::microseconds budget = kNoDeadline) {
    auto rows = run_radius({&q, 1}, r, budget, /*bulk_entry=*/false);
    return std::move(rows[0]);
  }

  std::vector<RadiusRow> bulk_radius(
      std::span<const geo::Point<D>> queries, double r,
      std::chrono::microseconds budget = kNoDeadline) {
    return run_radius(queries, r, budget, /*bulk_entry=*/true);
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
  // drain_rebuilds() and by the destructor.
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

 private:
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
    par::Waitable handle = pool_.submit(
        [this, j = std::move(*job)] { run_compaction(j); });
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

  // Translate a client (external) exclude id into the base index's
  // internal id space; absent ids come back as kNoId == kNoExclude, so
  // the base simply has nothing to skip.
  static std::uint32_t base_exclude(const Snapshot& base,
                                    std::uint32_t ext) {
    return ext == kNoExclude ? kNoExclude : base.internal_id(ext);
  }

  // One k-NN answer against a coherent live view: one single-pass index
  // query with the tombstone over-fetch margin, then the sorted merge
  // with the delta scans.
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

  // One radius answer against a coherent live view: the base's closed
  // ball minus tombstoned ids, plus the delta's live hits, sorted.
  static RadiusRow answer_radius_direct(const LiveView<D>& view,
                                        const geo::Point<D>& q, double r) {
    RadiusRow row;
    if (view.has_base()) {
      view.base->index->for_each_in_ball(
          q, r, [&](std::uint32_t internal, double d2) {
            const std::uint32_t ext = view.base->external_id(internal);
            if (!view.base_masked(ext)) row.emplace_back(ext, d2);
          });
    }
    view.for_each_delta_in_ball(
        q, r, [&](std::uint32_t id, double d2) { row.emplace_back(id, d2); });
    sort_radius_row(row);
    return row;
  }

  static void validate_budget(std::chrono::microseconds budget) {
    if (budget < kNoDeadline)
      throw QueryError("budget",
                       "budget must be >= 0; only 0 (kNoDeadline) means "
                       "no deadline");
  }

  // The smallest block a bulk is split into. One answer costs a few
  // microseconds, so eight keep a task hand-off small against the block;
  // SeparatorIndex's batch kernels split at the same grain.
  static constexpr std::size_t kMinBlockQueries = 8;

  // One block per pool thread, so an idle pool answers a bulk about
  // pool-width times faster than the caller alone, while a pool already
  // busy with other callers' blocks gets no more tasks than it has
  // threads.
  std::size_t bulk_grain(std::size_t nqueries) const {
    const std::size_t threads = pool_.concurrency();
    return std::max(kMinBlockQueries, (nqueries + threads - 1) / threads);
  }

  // Runs answer(view, i) for every query against one live view — on the
  // caller's thread, or spread over the pool per bulk_grain — and does
  // the accounting. Called after validation, so an invalid request never
  // moves a counter.
  template <class Row, class Answer>
  std::vector<Row> answer_all(std::size_t nqueries,
                              std::chrono::microseconds budget, bool is_knn,
                              bool bulk_entry, Answer&& answer) {
    std::vector<Row> out(nqueries);
    if (nqueries == 0) return out;
    ServiceStats::add(stats_.submitted, nqueries);
    ServiceStats::add(is_knn ? stats_.knn_submitted
                             : stats_.radius_submitted,
                      nqueries);
    if (bulk_entry) ServiceStats::add(stats_.bulk_requests, 1);
    const auto deadline = budget > kNoDeadline
                              ? Clock::now() + budget
                              : Clock::time_point::max();

    metrics::TraceSpan span(cfg_.trace, is_knn ? "knn" : "radius",
                            "service");
    Timer timer;
    ViewPtr view = live_.current();
    par::parallel_for(
        pool_, 0, nqueries,
        [&](std::size_t i) { out[i] = answer(*view, i); },
        bulk_grain(nqueries));

    stats_.punt_latency.record_seconds(timer.seconds(), nqueries);
    ServiceStats::add(stats_.punted, nqueries);
    ServiceStats::add(is_knn ? stats_.knn_answered
                             : stats_.radius_answered,
                      nqueries);
    if (under_rebuild()) ServiceStats::add(stats_.rebuilt_under, nqueries);
    if (Clock::now() > deadline) ServiceStats::add(stats_.expired, nqueries);
    return out;
  }

  std::vector<KnnRow> run_knn(std::span<const geo::Point<D>> queries,
                              std::size_t k,
                              std::chrono::microseconds budget,
                              std::span<const std::uint32_t> exclude,
                              bool bulk_entry) {
    SEPDC_CHECK_MSG(exclude.empty() || exclude.size() == queries.size(),
                    "broker knn: exclude must be empty or per-query");
    if (k == 0) throw QueryError("k", "k-NN requires k >= 1");
    validate_budget(budget);
    return answer_all<KnnRow>(
        queries.size(), budget, /*is_knn=*/true, bulk_entry,
        [&](const LiveView<D>& view, std::size_t i) {
          return answer_knn_direct(
              view, queries[i], k,
              exclude.empty() ? kNoExclude : exclude[i]);
        });
  }

  std::vector<RadiusRow> run_radius(std::span<const geo::Point<D>> queries,
                                    double r,
                                    std::chrono::microseconds budget,
                                    bool bulk_entry) {
    if (!(std::isfinite(r) && r >= 0.0))
      throw QueryError("radius", "must be finite and >= 0");
    validate_budget(budget);
    return answer_all<RadiusRow>(
        queries.size(), budget, /*is_knn=*/false, bulk_entry,
        [&](const LiveView<D>& view, std::size_t i) {
          return answer_radius_direct(view, queries[i], r);
        });
  }

  const BrokerConfig cfg_;
  par::ThreadPool& pool_;
  SnapshotStore<D> store_;
  // The live (base, sealed, active) view queries answer from. store_
  // remains the version authority (compactions and rebuilds publish to
  // both; both sides are monotone, so they can never disagree on order).
  LiveStore<D> live_;
  ServiceStats stats_;

  // rebuild_mu_ guards only the Waitable handles of in-flight async
  // rebuilds and background compactions; the snapshot handoff itself is
  // lock-free (SnapshotStore's CAS publishes outside any lock — see
  // snapshot.hpp) and the live-view handoff takes only the LiveStore's
  // own mutex. rebuilds_in_flight_ feeds the rebuilt_under marker.
  std::atomic<std::size_t> rebuilds_in_flight_{0};
  Mutex rebuild_mu_;
  std::vector<par::Waitable> rebuild_handles_ SEPDC_GUARDED_BY(rebuild_mu_);
};

}  // namespace sepdc::service
