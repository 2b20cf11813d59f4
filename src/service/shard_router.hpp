// Separator-based sharding: scale the service past one broker.
//
// The paper's intersection-number bound O(k^(1/d) n^((d-1)/d)) says a
// sphere separator cuts only a vanishing fraction of the neighborhood
// balls — so the same separators that drive the index recursion make a
// natural *shard function*: cut the point set into S regions down the
// top of a PartitionForest, run one completely independent QueryBroker
// (snapshot store + delta tier) per region, and fan a query out beyond
// its home shard only when its ball crosses a separator surface.
// Boundary traffic is the measured `boundary_fanout` fraction in
// ServiceStats; everything else runs shared-nothing (docs/sharding.md).
//
// The router starts no thread. A query visits its shards one after the
// other on the caller's thread, and each shard broker answers inline
// too (query_broker.hpp), so concurrency comes from the callers and,
// for a shard group of more than 8 queries, from that shard broker
// spreading the group over the shared pool.
//
// Result contracts are the single-broker ones, byte for byte: every
// shard answers with exact kernel distances over its disjoint subset of
// the live set, rows arrive sorted by (dist2, external id), and the
// router's k-way merge preserves exactly that order — sharded ==
// single-broker == brute force, including tie order (pinned by
// service_shard_differential_test).
//
// k-NN fan-out is two-phase: the home shard (the leaf shard_of(q) lands
// in) answers first; if its k-th hit bounds a ball that stays inside the
// home region, that row is already the global answer. Otherwise the
// query visits exactly the shards whose region the ball overlaps
// (classify(Ball) counts tangency as Cut, so boundary ties always fan
// out) and the rows merge by (dist2, id). The fan-out ball is inflated
// by ~1e-9 relative before classification so kernel/sqrt rounding can
// only cause extra visits, never a missed point. Radius queries go to
// the overlapping shards directly. Inserts route by shard_of(p);
// removes probe ownership (ids are unique across shards because insert
// checks liveness router-wide before routing).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/partition_forest.hpp"
#include "core/separator_index.hpp"
#include "geometry/ball.hpp"
#include "io/snapshot_file.hpp"
#include "parallel/thread_pool.hpp"
#include "service/query_broker.hpp"
#include "support/assert.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sepdc::service {

// The shard function: an immutable cut — the top few nodes of a
// separator forest, repacked in preorder — mapping points to shard ids
// and balls to the set of shards they overlap. Shard ids are the cut's
// leaves numbered in preorder (equivalently: by ascending node id),
// which is also the on-disk convention (io::SectionId::kShardNodes).
template <int D>
class ShardFunction {
 public:
  using Node = core::ForestNode<D>;
  using Point = geo::Point<D>;

  static constexpr std::uint32_t kNoShard = 0xffffffffu;

  // Trivial function: one shard covering everything.
  ShardFunction() {
    nodes_.push_back(Node{});
    leaf_shard_.push_back(0);
    shard_count_ = 1;
  }

  // Cuts `points` into (at most) `shards` regions: build a shallow
  // separator index (leaf_size raised to ~n/(4*shards), so the build
  // costs O(n log S), not a full index build), then greedily split the
  // largest region until the cut has `shards` leaves. May stop short
  // when the shallow forest runs out of internal nodes — shard_count()
  // reports what was achieved.
  static ShardFunction build(std::span<const Point> points,
                             std::uint32_t shards,
                             core::SeparatorIndexConfig index_cfg,
                             par::ThreadPool& pool) {
    ShardFunction fn;
    if (shards <= 1 ||
        points.size() < static_cast<std::size_t>(shards) * 2)
      return fn;  // single leaf
    core::SeparatorIndexConfig cut_cfg = index_cfg;
    cut_cfg.leaf_size = std::max<std::size_t>(
        cut_cfg.leaf_size, points.size() / (4 * shards));
    core::SeparatorIndex<D> shallow(points, cut_cfg, pool);
    const core::PartitionForest<D>& forest = shallow.forest();

    // Greedy balance: always split the largest current region (the
    // streaming-partitioner shape — greedy expansion under a region
    // budget), so no shard can end up holding most of the points while
    // siblings sit empty.
    std::set<std::uint32_t> expanded;
    using Entry = std::pair<std::uint32_t, std::uint32_t>;  // (size, id)
    std::priority_queue<Entry> heap;
    heap.push({forest.node(forest.root_id()).size(), forest.root_id()});
    std::size_t regions = 1;
    while (regions < shards && !heap.empty()) {
      const auto [size, id] = heap.top();
      heap.pop();
      const Node& n = forest.node(id);
      if (n.is_leaf()) continue;  // cannot split; stays a cut leaf
      expanded.insert(id);
      ++regions;
      heap.push({forest.node(n.inner).size(), n.inner});
      heap.push({forest.node(n.outer).size(), n.outer});
    }
    fn.nodes_.clear();
    fn.leaf_shard_.clear();
    fn.shard_count_ = 0;
    fn.pack(forest, forest.root_id(), expanded);
    fn.root_ = 0;
    return fn;
  }

  // Rebuilds the function from its serialized form (io::read_shard_file
  // has already validated bounds, acyclicity, and the checksum).
  static ShardFunction from_nodes(std::vector<Node> nodes,
                                  std::uint32_t root) {
    SEPDC_CHECK_MSG(!nodes.empty() && root < nodes.size(),
                    "shard function: invalid serialized cut");
    ShardFunction fn;
    fn.nodes_ = std::move(nodes);
    fn.root_ = root;
    fn.leaf_shard_.assign(fn.nodes_.size(), kNoShard);
    fn.shard_count_ = 0;
    for (std::size_t i = 0; i < fn.nodes_.size(); ++i)
      if (fn.nodes_[i].is_leaf()) fn.leaf_shard_[i] = fn.shard_count_++;
    SEPDC_CHECK_MSG(fn.shard_count_ >= 1,
                    "shard function: cut has no leaves");
    return fn;
  }

  std::uint32_t shard_count() const { return shard_count_; }
  std::uint32_t root() const { return root_; }
  std::span<const Node> nodes() const { return nodes_; }

  // The shard owning point p: descend by classify(Point) — surface
  // points go Inner, exactly the index build's convention, so the
  // function is total and deterministic.
  std::uint32_t shard_of(const Point& p) const {
    std::uint32_t id = root_;
    while (!nodes_[id].is_leaf())
      id = nodes_[id].separator.classify(p) == geo::Side::Inner
               ? nodes_[id].inner
               : nodes_[id].outer;
    return leaf_shard_[id];
  }

  // Every shard whose region the ball overlaps, each exactly once.
  // classify(Ball) errs toward Cut (tangency and a ~1e-12 relative
  // margin both count as crossing), so a point at exactly the ball
  // surface can never hide behind a separator.
  template <class Fn>
  void for_each_overlapping(const geo::Ball<D>& b, Fn&& fn) const {
    std::vector<std::uint32_t> stack{root_};
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      const Node& n = nodes_[id];
      if (n.is_leaf()) {
        fn(leaf_shard_[id]);
        continue;
      }
      const geo::Region r = n.separator.classify(b);
      if (r != geo::Region::Outer) stack.push_back(n.inner);
      if (r != geo::Region::Inner) stack.push_back(n.outer);
    }
  }

  std::vector<std::uint32_t> overlapping(const geo::Ball<D>& b) const {
    std::vector<std::uint32_t> out;
    for_each_overlapping(b, [&](std::uint32_t s) { out.push_back(s); });
    return out;
  }

 private:
  std::uint32_t pack(const core::PartitionForest<D>& forest,
                     std::uint32_t src,
                     const std::set<std::uint32_t>& expanded) {
    const std::uint32_t id =
        static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
    leaf_shard_.push_back(kNoShard);
    const Node& n = forest.node(src);
    nodes_[id].begin = n.begin;  // informative sizes only
    nodes_[id].end = n.end;
    if (expanded.count(src) != 0) {
      nodes_[id].separator = n.separator;
      const std::uint32_t inner = pack(forest, n.inner, expanded);
      const std::uint32_t outer = pack(forest, n.outer, expanded);
      nodes_[id].inner = inner;
      nodes_[id].outer = outer;
    } else {
      leaf_shard_[id] = shard_count_++;
    }
    return id;
  }

  std::vector<Node> nodes_;               // preorder; children after parent
  std::vector<std::uint32_t> leaf_shard_; // node id -> shard id (leaves)
  std::uint32_t root_ = 0;
  std::uint32_t shard_count_ = 0;
};

// Per-router configuration: the desired shard count plus the broker
// config every shard runs with (each shard gets its own snapshot store
// and delta tier; they share only the thread pool).
struct ShardRouterConfig {
  std::uint32_t shards = 1;
  BrokerConfig broker;
};

// The thin scatter/gather front-end over S shared-nothing brokers.
// Thread-safe the same way a single broker is: any number of client
// threads may query and mutate concurrently. Router-level ServiceStats
// count accepted work and fan-out (submitted/…/fanout_queries/
// shard_visits); the per-query outcome counters (punted, punt_latency)
// live in the per-shard broker stats.
template <int D>
class ShardRouter {
 public:
  using Broker = QueryBroker<D>;
  using KnnRow = typename Broker::KnnRow;
  using RadiusRow = typename Broker::RadiusRow;
  using Point = geo::Point<D>;

  static constexpr std::uint32_t kNoExclude = Broker::kNoExclude;
  static constexpr std::chrono::microseconds kNoDeadline =
      Broker::kNoDeadline;

  // Builds the shard function over `points` (external ids 0..n-1, the
  // single-broker rebuild convention) and one broker per shard, each
  // seeded with exactly the points its region owns.
  ShardRouter(std::span<const Point> points, const ShardRouterConfig& cfg,
              par::ThreadPool& pool)
      : fn_(ShardFunction<D>::build(points, cfg.shards,
                                    cfg.broker.index, pool)),
        brokers_(make_brokers(fn_, points, cfg, pool)) {}

  // Cold-start from a sharded save: `path` is the manifest written by
  // save_current; shard k loads from path + ".shard<k>". Throws
  // io::SnapshotIoError — and starts nothing — when any file is
  // defective or the files disagree on the cut (a torn mix of two
  // different saves' shards).
  ShardRouter(const std::string& path, const ShardRouterConfig& cfg,
              par::ThreadPool& pool)
      : fn_(load_fn(path)),
        brokers_(load_brokers(path, fn_, cfg, pool)) {}

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(brokers_.size());
  }
  const ShardFunction<D>& shard_function() const { return fn_; }
  Broker& shard(std::uint32_t s) { return *brokers_[s]; }

  // ------------------------------------------------------- query API

  KnnRow knn(const Point& q, std::size_t k,
             std::chrono::microseconds budget = kNoDeadline,
             std::uint32_t exclude = kNoExclude) {
    validate_knn(k, budget);
    const std::uint32_t home = fn_.shard_of(q);
    KnnRow home_row = shard(home).knn(q, k, budget, exclude);
    const std::vector<std::uint32_t> targets =
        knn_fanout_targets(q, k, home_row, home);
    if (targets.empty()) {
      account_query(/*is_knn=*/true, 1, 1, 0, false);
      return home_row;
    }
    std::vector<KnnRow> extra;
    extra.reserve(targets.size());
    for (std::uint32_t t : targets)
      extra.push_back(shard(t).knn(q, k, budget, exclude));
    account_query(/*is_knn=*/true, 1, 1 + targets.size(), 1, false);
    return merge_knn(std::move(home_row), extra, k);
  }

  std::vector<KnnRow> bulk_knn(std::span<const Point> queries,
                               std::size_t k,
                               std::chrono::microseconds budget =
                                   kNoDeadline,
                               std::span<const std::uint32_t> exclude = {}) {
    SEPDC_CHECK_MSG(exclude.empty() || exclude.size() == queries.size(),
                    "router knn: exclude must be empty or per-query");
    validate_knn(k, budget);
    std::vector<KnnRow> out(queries.size());
    if (queries.empty()) return out;
    // Phase 1: every query to its home shard, one bulk call per shard
    // group.
    std::vector<std::uint32_t> home(queries.size());
    std::vector<std::vector<std::uint32_t>> groups(shard_count());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      home[i] = fn_.shard_of(queries[i]);
      groups[home[i]].push_back(static_cast<std::uint32_t>(i));
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (groups[s].empty()) continue;
      std::vector<KnnRow> rows = shard_bulk_knn(s, groups[s], queries, k,
                                                budget, exclude);
      for (std::size_t j = 0; j < groups[s].size(); ++j)
        out[groups[s][j]] = std::move(rows[j]);
    }
    // Phase 2: queries whose ball crosses a separator visit the
    // overlapping shards, again grouped per target shard.
    std::vector<std::vector<std::uint32_t>> fan(shard_count());
    std::size_t fanned = 0;
    std::size_t visits = queries.size();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::vector<std::uint32_t> targets =
          knn_fanout_targets(queries[i], k, out[i], home[i]);
      if (targets.empty()) continue;
      ++fanned;
      visits += targets.size();
      for (std::uint32_t t : targets)
        fan[t].push_back(static_cast<std::uint32_t>(i));
    }
    // Gather: merge each fanned query's extra rows into its home row.
    std::vector<std::vector<KnnRow>> per_query(queries.size());
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (fan[s].empty()) continue;
      std::vector<KnnRow> rows =
          shard_bulk_knn(s, fan[s], queries, k, budget, exclude);
      for (std::size_t j = 0; j < fan[s].size(); ++j)
        per_query[fan[s][j]].push_back(std::move(rows[j]));
    }
    for (std::size_t i = 0; i < queries.size(); ++i)
      if (!per_query[i].empty())
        out[i] = merge_knn(std::move(out[i]), per_query[i], k);
    account_query(/*is_knn=*/true, queries.size(), visits, fanned, true);
    return out;
  }

  RadiusRow radius(const Point& q, double r,
                   std::chrono::microseconds budget = kNoDeadline) {
    validate_radius(r, budget);
    const std::vector<std::uint32_t> targets =
        fn_.overlapping(geo::Ball<D>{q, r});
    if (targets.size() == 1) {
      RadiusRow row = shard(targets[0]).radius(q, r, budget);
      account_query(/*is_knn=*/false, 1, 1, 0, false);
      return row;
    }
    std::vector<RadiusRow> rows;
    rows.reserve(targets.size());
    for (std::uint32_t t : targets)
      rows.push_back(shard(t).radius(q, r, budget));
    account_query(/*is_knn=*/false, 1, targets.size(), 1, false);
    return merge_radius(rows);
  }

  std::vector<RadiusRow> bulk_radius(std::span<const Point> queries,
                                     double r,
                                     std::chrono::microseconds budget =
                                         kNoDeadline) {
    validate_radius(r, budget);
    std::vector<RadiusRow> out(queries.size());
    if (queries.empty()) return out;
    std::vector<std::vector<std::uint32_t>> groups(shard_count());
    std::size_t visits = 0;
    std::size_t fanned = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::vector<std::uint32_t> targets =
          fn_.overlapping(geo::Ball<D>{queries[i], r});
      visits += targets.size();
      if (targets.size() > 1) ++fanned;
      for (std::uint32_t t : targets)
        groups[t].push_back(static_cast<std::uint32_t>(i));
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (groups[s].empty()) continue;
      std::vector<Point> sub;
      sub.reserve(groups[s].size());
      for (std::uint32_t i : groups[s]) sub.push_back(queries[i]);
      std::vector<RadiusRow> rows = shard(s).bulk_radius(sub, r, budget);
      for (std::size_t j = 0; j < groups[s].size(); ++j) {
        RadiusRow& dst = out[groups[s][j]];
        dst.insert(dst.end(), rows[j].begin(), rows[j].end());
      }
    }
    for (RadiusRow& row : out) sort_radius_row(row);
    account_query(/*is_knn=*/false, queries.size(), visits, fanned, true);
    return out;
  }

  // ------------------------------------------------------ update API
  // Same as-of-submission and validation-before-mutation contracts as
  // the broker's. Insert checks liveness router-wide before routing so
  // an external id stays unique across shards; concurrent conflicting
  // updates of the *same id* are the caller's race, exactly as they are
  // on a single broker.

  void insert(std::uint32_t id, const Point& p) {
    validate_insert(id, p);
    if (contains(id))
      throw QueryError("id", "insert of an id that is already live");
    shard(fn_.shard_of(p)).insert(id, p);
    ServiceStats::add(stats_.updates_submitted, 1);
    ServiceStats::add(stats_.inserts, 1);
  }

  void remove(std::uint32_t id) {
    const std::uint32_t owner = owner_of(id);
    if (owner == ShardFunction<D>::kNoShard)
      throw QueryError("id", "remove of an id that is not live");
    shard(owner).remove(id);
    ServiceStats::add(stats_.updates_submitted, 1);
    ServiceStats::add(stats_.removes, 1);
  }

  // Bulk mutation: validated all-or-nothing at the router (any bad
  // element rejects the whole batch before any shard mutates), then
  // applied as one sub-batch — one view publication — per shard.
  // Visibility is per shard: a concurrent reader can briefly see shard
  // A's half of the batch before shard B's lands (docs/sharding.md
  // failure modes); when the call returns, everything is visible.
  void insert_bulk(std::span<const std::uint32_t> ids,
                   std::span<const Point> points) {
    SEPDC_CHECK_MSG(ids.size() == points.size(),
                    "router insert_bulk: ids and points must be parallel");
    if (ids.empty()) return;
    std::set<std::uint32_t> batch;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      validate_insert(ids[i], points[i]);
      if (contains(ids[i]))
        throw QueryError("id", "insert of an id that is already live");
      if (!batch.insert(ids[i]).second)
        throw QueryError("id", "bulk insert repeats an id");
    }
    std::vector<std::vector<std::uint32_t>> sub_ids(shard_count());
    std::vector<std::vector<Point>> sub_pts(shard_count());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::uint32_t s = fn_.shard_of(points[i]);
      sub_ids[s].push_back(ids[i]);
      sub_pts[s].push_back(points[i]);
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (!sub_ids[s].empty())
        shard(s).insert_bulk(sub_ids[s], sub_pts[s]);
    ServiceStats::add(stats_.updates_submitted, ids.size());
    ServiceStats::add(stats_.inserts, ids.size());
  }

  void remove_bulk(std::span<const std::uint32_t> ids) {
    if (ids.empty()) return;
    std::set<std::uint32_t> batch;
    std::vector<std::vector<std::uint32_t>> sub_ids(shard_count());
    for (std::uint32_t id : ids) {
      const std::uint32_t owner = owner_of(id);
      if (owner == ShardFunction<D>::kNoShard)
        throw QueryError("id", "remove of an id that is not live");
      if (!batch.insert(id).second)
        throw QueryError("id", "bulk remove repeats an id");
      sub_ids[owner].push_back(id);
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (!sub_ids[s].empty()) shard(s).remove_bulk(sub_ids[s]);
    ServiceStats::add(stats_.updates_submitted, ids.size());
    ServiceStats::add(stats_.removes, ids.size());
  }

  bool contains(std::uint32_t id) const {
    for (const auto& b : brokers_)
      if (b->contains(id)) return true;
    return false;
  }

  bool compact() {
    bool any = false;
    for (const auto& b : brokers_) any |= b->compact();
    return any;
  }

  void drain_rebuilds() {
    for (const auto& b : brokers_) b->drain_rebuilds();
  }

  // ----------------------------------------------------- persistence

  // Serializes the shard function plus every shard's current view:
  // path + ".shard<k>" per shard (each an atomic tmp + rename; a
  // base-less shard writes the stub format), then the manifest at
  // `path` — written last, so the manifest rename is the commit point
  // of the save. bootstrap refuses a mix of files whose cut checksums
  // disagree. Concurrent saves serialize on save_mu_.
  bool save_current(const std::string& path) SEPDC_EXCLUDES(save_mu_) {
    LockGuard lock(save_mu_);
    const std::uint64_t seq = ++save_seq_;
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      shard(s).save_shard(shard_path(path, s), fn_.nodes(),
                          shard_count(), s, fn_.root());
    io::save_shard_stub<D>(path, fn_.nodes(), shard_count(),
                           io::kShardManifestId, fn_.root(), seq);
    ServiceStats::add(stats_.snapshot_saves, 1);
    last_saved_seq_.store(seq, std::memory_order_release);
    return true;
  }

  std::uint64_t last_saved_seq() const {
    return last_saved_seq_.load(std::memory_order_acquire);
  }

  static std::string shard_path(const std::string& manifest,
                                std::uint32_t s) {
    return manifest + ".shard" + std::to_string(s);
  }

  // ------------------------------------------------------ observation

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const auto& b : brokers_) n += b->live_count();
    return n;
  }

  // Router-level stats: accepted queries, fan-out, updates, saves.
  ServiceStatsSnapshot stats() const { return stats_.snapshot(); }
  ServiceStatsSnapshot shard_stats(std::uint32_t s) const {
    return brokers_[s]->stats();
  }

  // Rolled-up view: the sum of every shard broker's counters (outcome
  // counters, updates, compactions — each holds per shard, so the sums
  // hold too) with the router's fan-out accounting grafted on top.
  // boundary_fanout is computed against the *router's* submitted count:
  // per-shard submissions intentionally double-count fanned queries
  // (that duplication is exactly the boundary cost the paper bounds).
  // Histograms are per-shard; read them via shard_stats().
  ServiceStatsSnapshot aggregated_stats() const {
    ServiceStatsSnapshot agg;
    for (const auto& b : brokers_) {
      ServiceStatsSnapshot s = b->stats();
      agg.submitted += s.submitted;
      agg.punted += s.punted;
      agg.expired += s.expired;
      agg.rebuilt_under += s.rebuilt_under;
      agg.bulk_requests += s.bulk_requests;
      agg.rebuilds += s.rebuilds;
      agg.snapshots_published += s.snapshots_published;
      agg.snapshots_discarded += s.snapshots_discarded;
      agg.snapshot_saves += s.snapshot_saves;
      agg.snapshot_loads += s.snapshot_loads;
      agg.knn_submitted += s.knn_submitted;
      agg.radius_submitted += s.radius_submitted;
      agg.knn_answered += s.knn_answered;
      agg.radius_answered += s.radius_answered;
      agg.updates_submitted += s.updates_submitted;
      agg.inserts += s.inserts;
      agg.removes += s.removes;
      agg.compactions += s.compactions;
      agg.compactions_abandoned += s.compactions_abandoned;
      agg.delta_peak = std::max(agg.delta_peak, s.delta_peak);
    }
    const ServiceStatsSnapshot mine = stats_.snapshot();
    agg.fanout_queries = mine.fanout_queries;
    agg.shard_visits = mine.shard_visits;
    agg.boundary_fanout =
        mine.submitted > 0
            ? static_cast<double>(mine.fanout_queries) /
                  static_cast<double>(mine.submitted)
            : 0.0;
    return agg;
  }

 private:
  using BrokerVec = std::vector<std::unique_ptr<Broker>>;

  static BrokerVec make_brokers(const ShardFunction<D>& fn,
                                std::span<const Point> points,
                                const ShardRouterConfig& cfg,
                                par::ThreadPool& pool) {
    std::vector<std::vector<std::uint32_t>> ids(fn.shard_count());
    std::vector<std::vector<Point>> pts(fn.shard_count());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint32_t s = fn.shard_of(points[i]);
      ids[s].push_back(static_cast<std::uint32_t>(i));
      pts[s].push_back(points[i]);
    }
    BrokerVec brokers;
    brokers.reserve(fn.shard_count());
    for (std::uint32_t s = 0; s < fn.shard_count(); ++s)
      brokers.push_back(std::make_unique<Broker>(
          std::span<const Point>(pts[s]),
          std::span<const std::uint32_t>(ids[s]), cfg.broker, pool));
    return brokers;
  }

  static ShardFunction<D> load_fn(const std::string& path) {
    io::LoadedShardFile<D> manifest = io::read_shard_file<D>(path);
    if (manifest.shard_id != io::kShardManifestId)
      throw io::SnapshotIoError(
          io::SnapshotError::kBadStructure,
          "not a shard manifest (shard_id != manifest sentinel): " +
              path);
    return ShardFunction<D>::from_nodes(std::move(manifest.nodes),
                                        manifest.root);
  }

  static BrokerVec load_brokers(const std::string& path,
                                const ShardFunction<D>& fn,
                                const ShardRouterConfig& cfg,
                                par::ThreadPool& pool) {
    io::LoadedShardFile<D> manifest = io::read_shard_file<D>(path);
    BrokerVec brokers;
    brokers.reserve(manifest.shard_count);
    for (std::uint32_t s = 0; s < manifest.shard_count; ++s) {
      const std::string spath = shard_path(path, s);
      io::LoadedShardFile<D> f = io::read_shard_file<D>(spath);
      if (f.shard_count != manifest.shard_count || f.shard_id != s ||
          f.cut_checksum != manifest.cut_checksum)
        throw io::SnapshotIoError(
            io::SnapshotError::kBadStructure,
            "shard file disagrees with the manifest (torn sharded "
            "save?): " + spath);
      if (f.empty_base) {
        // The shard had no built base at save time: its live set is
        // exactly the saved delta, which becomes this broker's base.
        brokers.push_back(std::make_unique<Broker>(
            std::span<const Point>(f.delta.points),
            std::span<const std::uint32_t>(f.delta.ids), cfg.broker,
            pool));
      } else {
        brokers.push_back(
            std::make_unique<Broker>(spath, cfg.broker, pool));
      }
    }
    (void)fn;
    return brokers;
  }

  // ----------------------------------------------------- fan-out math

  // The ball that must stay inside the home region for the home row to
  // be the global k-NN answer: radius = k-th distance, inflated by a
  // ~1e-9 relative margin so sqrt/kernel rounding can only widen the
  // fan-out (extra shard visits cost latency; a missed visit would cost
  // a row — never trade that direction).
  static double fanout_radius(double kth_dist2) {
    const double r = std::sqrt(kth_dist2);
    return r + 1e-9 * (r + 1.0);
  }

  std::vector<std::uint32_t> knn_fanout_targets(const Point& q,
                                                std::size_t k,
                                                const KnnRow& home_row,
                                                std::uint32_t home) const {
    std::vector<std::uint32_t> targets;
    if (shard_count() == 1) return targets;
    if (home_row.size() < k) {
      // The home shard cannot even fill the row: every other shard may
      // contribute.
      for (std::uint32_t s = 0; s < shard_count(); ++s)
        if (s != home) targets.push_back(s);
      return targets;
    }
    const geo::Ball<D> ball{q, fanout_radius(home_row.back().dist2)};
    fn_.for_each_overlapping(ball, [&](std::uint32_t s) {
      if (s != home) targets.push_back(s);
    });
    return targets;
  }

  // Merge sorted (dist2, id) rows from disjoint shards: concatenate,
  // one sort, truncate. Rows never share an id (shards are disjoint),
  // so the (dist2, id) comparison is a strict weak order with no
  // duplicate keys and the result is bit-identical to the single-broker
  // row.
  static KnnRow merge_knn(KnnRow home, std::span<const KnnRow> extra,
                          std::size_t k) {
    for (const KnnRow& row : extra)
      home.insert(home.end(), row.begin(), row.end());
    std::sort(home.begin(), home.end());
    if (home.size() > k) home.resize(k);
    return home;
  }

  static void sort_radius_row(RadiusRow& row) {
    std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
  }

  static RadiusRow merge_radius(std::span<const RadiusRow> rows) {
    RadiusRow out;
    std::size_t total = 0;
    for (const RadiusRow& r : rows) total += r.size();
    out.reserve(total);
    for (const RadiusRow& r : rows)
      out.insert(out.end(), r.begin(), r.end());
    sort_radius_row(out);
    return out;
  }

  // -------------------------------------------------------- plumbing

  void validate_knn(std::size_t k,
                    std::chrono::microseconds budget) const {
    if (k == 0) throw QueryError("k", "k-NN requires k >= 1");
    if (budget < kNoDeadline)
      throw QueryError("budget",
                       "budget must be >= 0; only 0 (kNoDeadline) means "
                       "no deadline");
  }

  void validate_radius(double r,
                       std::chrono::microseconds budget) const {
    if (!(std::isfinite(r) && r >= 0.0))
      throw QueryError("radius", "must be finite and >= 0");
    if (budget < kNoDeadline)
      throw QueryError("budget",
                       "budget must be >= 0; only 0 (kNoDeadline) means "
                       "no deadline");
  }

  static void validate_insert(std::uint32_t id, const Point& p) {
    if (id == DeltaSegment<D>::kReservedId)
      throw QueryError("id", "0xffffffff is reserved");
    for (int dim = 0; dim < D; ++dim)
      if (!std::isfinite(p[dim]))
        throw QueryError("point", "coordinates must be finite");
  }

  std::uint32_t owner_of(std::uint32_t id) const {
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (brokers_[s]->contains(id)) return s;
    return ShardFunction<D>::kNoShard;
  }

  // One bulk k-NN on shard s over the queries at positions `which`.
  std::vector<KnnRow> shard_bulk_knn(
      std::uint32_t s, std::span<const std::uint32_t> which,
      std::span<const Point> queries, std::size_t k,
      std::chrono::microseconds budget,
      std::span<const std::uint32_t> exclude) {
    std::vector<Point> sub;
    std::vector<std::uint32_t> sub_excl;
    sub.reserve(which.size());
    for (std::uint32_t i : which) {
      sub.push_back(queries[i]);
      if (!exclude.empty()) sub_excl.push_back(exclude[i]);
    }
    return shard(s).bulk_knn(sub, k, budget, sub_excl);
  }

  void account_query(bool is_knn, std::size_t nqueries,
                     std::size_t visits, std::size_t fanned,
                     bool bulk_entry) {
    ServiceStats::add(stats_.submitted, nqueries);
    ServiceStats::add(is_knn ? stats_.knn_submitted
                             : stats_.radius_submitted,
                      nqueries);
    ServiceStats::add(is_knn ? stats_.knn_answered
                             : stats_.radius_answered,
                      nqueries);
    ServiceStats::add(stats_.shard_visits, visits);
    ServiceStats::add(stats_.fanout_queries, fanned);
    if (bulk_entry) ServiceStats::add(stats_.bulk_requests, 1);
  }

  const ShardFunction<D> fn_;
  const BrokerVec brokers_;
  // Router-level accounting (ServiceStats is self-synchronizing:
  // relaxed atomics, exact after quiescence).
  ServiceStats stats_;

  // Lock protocol: save_mu_ serializes whole sharded saves (per-shard
  // writes are individually atomic; the manifest written last under the
  // lock is the save's commit point) and guards the save sequence
  // number. last_saved_seq_ mirrors it for lock-free observation
  // (store-release after the manifest rename, load-acquire by readers).
  Mutex save_mu_;
  std::uint64_t save_seq_ SEPDC_GUARDED_BY(save_mu_) = 0;
  std::atomic<std::uint64_t> last_saved_seq_{0};
};

}  // namespace sepdc::service
