// A standalone spatial index built from the paper's partition machinery.
//
// The §6 algorithm's partition tree is useful beyond the all-k-NN
// computation it was built for: marching a query ball down the tree
// (exactly the Fast Correction reachability of Lemma 6.3) enumerates
// every point within a radius, and one nearer-child-first descent with
// far-side pruning (the §3 search structure's single pass) answers
// k-nearest-neighbor queries for arbitrary query points. This class
// packages that as a queryable index — the thing a downstream user
// actually wants from a "sphere separator" library.
//
// The tree is an arena-backed PartitionForest: one contiguous node
// vector with 32-bit child indices, built with atomic bump allocation
// under the parallel recursion. Queries walk the flat nodes with an
// explicit stack; the batched entry points (batch_radius, batch_knn)
// run the single queries in parallel over disjoint result rows.
//
// Guarantees are exact (not approximate): a leaf is reachable by a ball
// B whenever B could intersect the leaf's region, so every point inside
// B is found (§6.2's reachability induction).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/partition_forest.hpp"
#include "core/separator_search.hpp"
#include "geometry/ball.hpp"
#include "geometry/point.hpp"
#include "knn/block_store.hpp"
#include "knn/kernels.hpp"
#include "knn/topk.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace sepdc::core {

struct SeparatorIndexConfig {
  std::size_t leaf_size = 32;
  double delta_slack = 0.05;
  std::size_t max_separator_attempts = 64;
  PartitionRule partition = PartitionRule::MttvSphere;
  std::uint64_t seed = 1992;
  std::size_t parallel_grain = 8192;  // spawn tasks above this size
  pvm::CostConfig cost;
};

// The config travels raw inside the snapshot meta section so a loaded
// index can report how it was built and seed successor rebuilds.
SEPDC_PIN_TRIVIAL_LAYOUT(SeparatorIndexConfig, 56, 8);

template <int D>
class SeparatorIndex {
 public:
  SeparatorIndex(std::span<const geo::Point<D>> points,
                 const SeparatorIndexConfig& cfg, par::ThreadPool& pool)
      : points_(points.begin(), points.end()),
        cfg_(cfg),
        perm_(points.size()),
        forest_(PartitionForest<D>::for_points(points.size())) {
    SEPDC_CHECK_MSG(!points.empty(), "index over empty point set");
    for (std::size_t i = 0; i < perm_.size(); ++i)
      perm_[i] = static_cast<std::uint32_t>(i);
    Rng rng(cfg.seed);
    std::uint32_t root =
        build(0, static_cast<std::uint32_t>(points.size()), rng, 0, pool);
    forest_.set_root(root);
    forest_.finalize();
    pack_leaf_blocks();
  }

  // Sentinel for "exclude nothing" in knn / batch_knn.
  static constexpr std::uint32_t kNoExclude = 0xffffffffu;

  // Relocated storage for the zero-copy snapshot load path
  // (io/snapshot_file.hpp): every span — typically an mmap-ed file
  // section that must outlive the index — carries exactly the arrays a
  // built index owns on the heap.
  struct Relocated {
    std::span<const geo::Point<D>> points;
    std::span<const std::uint32_t> perm;
    std::span<const ForestNode<D>> nodes;
    std::span<const knn::BlockRange> leaf_blocks;
    std::span<const double> block_coords;
    std::span<const std::uint32_t> block_ids;
    std::span<const std::uint8_t> block_lanes;
    std::uint32_t root = kNoChild;
    SeparatorIndexConfig cfg;
  };

  // Adopts relocated storage without building: the views are served
  // as-is. Structural bounds (child links, payload and block ranges) are
  // validated up front so a corrupt mapping fails here, not mid-query.
  static SeparatorIndex adopt(const Relocated& r) {
    SEPDC_CHECK_MSG(!r.points.empty(), "index over empty point set");
    SEPDC_CHECK_MSG(r.perm.size() == r.points.size(),
                    "SeparatorIndex::adopt: perm/points size mismatch");
    SEPDC_CHECK_MSG(!r.nodes.empty() && r.root < r.nodes.size(),
                    "SeparatorIndex::adopt: root outside the node arena");
    SEPDC_CHECK_MSG(r.leaf_blocks.size() == r.nodes.size(),
                    "SeparatorIndex::adopt: leaf_blocks/nodes mismatch");
    const std::uint32_t nnodes = static_cast<std::uint32_t>(r.nodes.size());
    const std::uint32_t nblocks =
        static_cast<std::uint32_t>(r.block_lanes.size());
    for (std::uint32_t id = 0; id < nnodes; ++id) {
      const ForestNode<D>& n = r.nodes[id];
      SEPDC_CHECK_MSG(n.begin <= n.end && n.end <= r.perm.size(),
                      "SeparatorIndex::adopt: node range out of bounds");
      if (!n.is_leaf())
        SEPDC_CHECK_MSG(n.inner < nnodes && n.outer < nnodes,
                        "SeparatorIndex::adopt: child index out of bounds");
      const knn::BlockRange& b = r.leaf_blocks[id];
      SEPDC_CHECK_MSG(b.begin <= b.end && b.end <= nblocks,
                      "SeparatorIndex::adopt: leaf block range out of "
                      "bounds");
    }
    for (std::uint32_t pid : r.perm)
      SEPDC_CHECK_MSG(pid < r.points.size(),
                      "SeparatorIndex::adopt: perm entry out of bounds");
    SeparatorIndex index;
    index.points_ = arena::ArenaVec<geo::Point<D>>::view_of(r.points);
    index.perm_ = arena::ArenaVec<std::uint32_t>::view_of(r.perm);
    index.forest_ = PartitionForest<D>::adopt(r.nodes, r.root);
    index.leaf_blocks_ =
        arena::ArenaVec<knn::BlockRange>::view_of(r.leaf_blocks);
    index.blocks_ = knn::PointBlockStore<D>::adopt(
        r.block_coords, r.block_ids, r.block_lanes);
    index.cfg_ = r.cfg;
    return index;
  }

  std::size_t size() const { return points_.size(); }
  std::size_t height() const { return forest_.height(); }
  std::size_t leaf_count() const { return forest_.leaf_count(); }
  const PartitionForest<D>& forest() const { return forest_; }

  // Const snapshot view: the indexed points (in input order) and the
  // build configuration. A service that publishes this index as an
  // immutable snapshot uses these to persist it and to rebuild a
  // successor generation without retaining the input.
  std::span<const geo::Point<D>> points() const { return points_.span(); }
  const SeparatorIndexConfig& config() const { return cfg_; }

  // Remaining storage accessors — what snapshot save writes.
  std::span<const std::uint32_t> perm() const { return perm_.span(); }
  std::span<const knn::BlockRange> leaf_blocks() const {
    return leaf_blocks_.span();
  }
  const knn::PointBlockStore<D>& blocks() const { return blocks_; }

  // Invokes fn(id, dist2) for every indexed point with
  // distance(point, center) <= radius (closed ball). This is the
  // radius-boundary contract (docs/kernels.md), decided by
  // kernels::filter_closed_ball; knn::KdTree, the test oracle, keeps the
  // identical semantics.
  template <class Fn>
  void for_each_in_ball(const geo::Point<D>& center, double radius,
                        Fn fn) const {
    if (radius < 0.0) return;
    geo::Ball<D> ball{center, radius};
    const double r2 = radius * radius;
    march(ball, [&](std::uint32_t leaf_id) {
      blocks_.scan(leaf_blocks_[leaf_id], center,
                   [&](const double* dist2s, const std::uint32_t* ids,
                       std::size_t lanes) {
                     knn::kernels::filter_closed_ball(dist2s, ids, lanes,
                                                      r2, fn);
                   });
    });
  }

  // Number of points within the (closed) ball.
  std::size_t count_in_ball(const geo::Point<D>& center,
                            double radius) const {
    std::size_t count = 0;
    for_each_in_ball(center, radius,
                     [&](std::uint32_t, double) { ++count; });
    return count;
  }

  // Exact k nearest neighbors of an arbitrary query point in one pass
  // over the flat forest: descend to the child q classifies into, push
  // the far child, and offer every reached leaf to the TopK. A far child
  // is visited only while the ball of the current k-th distance still
  // reaches across its parent's separator; tangency counts as Cut (the
  // separator's margin), so a far point tying the k-th distance is still
  // offered and the (dist2, id) tie-break sees it. `exclude` skips one
  // point id (self-queries).
  knn::TopK knn(const geo::Point<D>& q, std::size_t k,
                std::uint32_t exclude = kNoExclude) const {
    knn::TopK best(k);
    if (k == 0) return best;
    struct Pending {
      std::uint32_t node;
      std::uint32_t parent;  // kNoChild for the root
      geo::Region near;      // q's side of the parent's separator
    };
    std::vector<Pending> stack{{forest_.root_id(), kNoChild,
                                geo::Region::Cut}};
    while (!stack.empty()) {
      const Pending p = stack.back();
      stack.pop_back();
      if (p.parent != kNoChild && best.full()) {
        geo::Ball<D> ball{q, std::sqrt(best.worst_dist2())};
        if (forest_.node(p.parent).separator.classify(ball) == p.near)
          continue;
      }
      std::uint32_t id = p.node;
      while (!forest_.node(id).is_leaf()) {
        const ForestNode<D>& node = forest_.node(id);
        if (node.separator.classify(q) == geo::Side::Inner) {
          stack.push_back({node.outer, id, geo::Region::Inner});
          id = node.inner;
        } else {
          stack.push_back({node.inner, id, geo::Region::Outer});
          id = node.outer;
        }
      }
      blocks_.scan(leaf_blocks_[id], q,
                   [&](const double* dist2s, const std::uint32_t* ids,
                       std::size_t lanes) {
                     best.offer_block(dist2s, ids, lanes, exclude);
                   });
    }
    return best;
  }

  // --------------------------------------------------- batched queries

  // Fixed-radius search for a whole batch of queries, parallel over
  // disjoint result rows; each row is one for_each_in_ball march, so
  // row content and order are independent of the worker schedule.
  // Returns, per query, the (point id, dist2) pairs within the closed
  // ball of `radius`.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> batch_radius(
      par::ThreadPool& pool, std::span<const geo::Point<D>> queries,
      double radius) const {
    std::vector<std::vector<std::pair<std::uint32_t, double>>> out(
        queries.size());
    par::parallel_for(
        pool, 0, queries.size(),
        [&](std::size_t i) {
          for_each_in_ball(queries[i], radius,
                           [&](std::uint32_t id, double d2) {
                             out[i].emplace_back(id, d2);
                           });
        },
        /*grain=*/8);
    return out;
  }

  // Exact k-NN for a batch of queries, parallel over disjoint result
  // rows; each query is one single-pass knn(). Returns, per query, the
  // neighbors sorted by distance. When `exclude` is non-empty it must
  // have one point id per query (or kNoExclude) to skip — the all-k-NN
  // self-exclusion shape.
  std::vector<std::vector<knn::TopK::Entry>> batch_knn(
      par::ThreadPool& pool, std::span<const geo::Point<D>> queries,
      std::size_t k, std::span<const std::uint32_t> exclude = {}) const {
    SEPDC_CHECK_MSG(exclude.empty() || exclude.size() == queries.size(),
                    "batch_knn: exclude must be empty or per-query");
    std::vector<std::vector<knn::TopK::Entry>> out(queries.size());
    par::parallel_for(
        pool, 0, queries.size(),
        [&](std::size_t i) {
          out[i] = knn(queries[i], k,
                       exclude.empty() ? kNoExclude : exclude[i])
                       .take_sorted();
        },
        /*grain=*/8);
    return out;
  }

 private:
  std::uint32_t build(std::uint32_t begin, std::uint32_t end, Rng& rng,
                      std::size_t depth, par::ThreadPool& pool) {
    const std::size_t m = end - begin;
    std::uint32_t id = forest_.allocate();
    if (m <= cfg_.leaf_size) {
      ForestNode<D>& node = forest_.node(id);
      node.begin = begin;
      node.end = end;
      return id;
    }

    auto at = [&](std::size_t i) { return points_[perm_[begin + i]]; };
    auto outcome = find_point_separator<D>(
        m, at, cfg_.partition, geo::splitting_ratio(D) + cfg_.delta_slack,
        cfg_.max_separator_attempts, static_cast<int>(depth % D), rng,
        cfg_.cost);
    if (!outcome.shape) {  // unsplittable (identical points): big leaf
      ForestNode<D>& node = forest_.node(id);
      node.begin = begin;
      node.end = end;
      return id;
    }

    // Partition the permutation range: Inner side first.
    std::vector<std::uint32_t> inner_ids, outer_ids;
    inner_ids.reserve(m);
    for (std::uint32_t i = begin; i < end; ++i) {
      std::uint32_t pid = perm_[i];
      if (outcome.shape->classify(points_[pid]) == geo::Side::Inner)
        inner_ids.push_back(pid);
      else
        outer_ids.push_back(pid);
    }
    std::copy(inner_ids.begin(), inner_ids.end(),
              perm_.begin_mut() + begin);
    std::copy(outer_ids.begin(), outer_ids.end(),
              perm_.begin_mut() + begin + inner_ids.size());
    auto mid = begin + static_cast<std::uint32_t>(inner_ids.size());
    SEPDC_ASSERT(mid > begin && mid < end);

    std::uint32_t inner = kNoChild, outer = kNoChild;
    Rng inner_rng = rng.split();
    Rng outer_rng = rng.split();
    if (m >= cfg_.parallel_grain) {
      par::parallel_invoke(
          pool,
          [&] { inner = build(begin, mid, inner_rng, depth + 1, pool); },
          [&] { outer = build(mid, end, outer_rng, depth + 1, pool); });
    } else {
      inner = build(begin, mid, inner_rng, depth + 1, pool);
      outer = build(mid, end, outer_rng, depth + 1, pool);
    }
    ForestNode<D>& node = forest_.node(id);
    node.begin = begin;
    node.end = end;
    node.separator = *outcome.shape;
    node.inner = inner;
    node.outer = outer;
    return id;
  }

  // Packs every leaf's payload (perm_ order) into the SoA block store so
  // the ball marches scan with the batched kernels. Runs once after
  // finalize(): node ids and perm_ are final, and leaf_blocks_ is indexed
  // by forest node id.
  void pack_leaf_blocks() {
    blocks_.reserve_points(points_.size());
    leaf_blocks_.assign(forest_.node_count(), knn::BlockRange{});
    for (std::uint32_t id = 0;
         id < static_cast<std::uint32_t>(forest_.node_count()); ++id) {
      const ForestNode<D>& node = forest_.node(id);
      if (!node.is_leaf()) continue;
      leaf_blocks_[id] = blocks_.append_range(
          node.end - node.begin,
          [&](std::size_t j) -> const geo::Point<D>& {
            return points_[perm_[node.begin + j]];
          },
          [&](std::size_t j) { return perm_[node.begin + j]; });
    }
  }

  // Reachability march (Lemma 6.3): invoke fn(leaf_id) for every leaf the
  // ball can touch. Iterative over the flat forest — no pointer chasing,
  // no recursion.
  template <class Fn>
  void march(const geo::Ball<D>& ball, Fn fn) const {
    std::vector<std::uint32_t> stack{forest_.root_id()};
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      const ForestNode<D>& node = forest_.node(id);
      stack.pop_back();
      if (node.is_leaf()) {
        fn(id);
        continue;
      }
      geo::Region region = node.separator.classify(ball);
      if (region != geo::Region::Inner) stack.push_back(node.outer);
      if (region != geo::Region::Outer) stack.push_back(node.inner);
    }
  }

  SeparatorIndex() = default;  // adopt() fills the members in

  arena::ArenaVec<geo::Point<D>> points_;
  SeparatorIndexConfig cfg_;
  arena::ArenaVec<std::uint32_t> perm_;
  PartitionForest<D> forest_;
  knn::PointBlockStore<D> blocks_;          // leaf payloads, perm_ order
  // Indexed by forest node id.
  arena::ArenaVec<knn::BlockRange> leaf_blocks_;
};

}  // namespace sepdc::core
