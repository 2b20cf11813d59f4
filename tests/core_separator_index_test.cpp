// The standalone SeparatorIndex: exact fixed-radius and k-NN queries
// through the partition-tree reachability march.
#include "core/separator_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "knn/kdtree.hpp"
#include "workload/generators.hpp"

namespace sepdc::core {
namespace {

template <int D>
std::vector<std::uint32_t> brute_in_ball(
    std::span<const geo::Point<D>> pts, const geo::Point<D>& c, double r) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (geo::distance2(pts[i], c) <= r * r)
      out.push_back(static_cast<std::uint32_t>(i));
  return out;
}

// Brute-force k-NN oracle: the k smallest (dist2, id) pairs — the same
// total order TopK's tie-break defines, so ties are compared too.
template <int D>
std::vector<knn::TopK::Entry> brute_knn(std::span<const geo::Point<D>> pts,
                                        const geo::Point<D>& q,
                                        std::size_t k,
                                        std::uint32_t exclude) {
  std::vector<knn::TopK::Entry> all;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (i != exclude)
      all.push_back({geo::distance2(pts[i], q),
                     static_cast<std::uint32_t>(i)});
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

void expect_rows_equal(const std::vector<knn::TopK::Entry>& got,
                       const std::vector<knn::TopK::Entry>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].index, want[s].index) << what << " slot " << s;
    EXPECT_EQ(got[s].dist2, want[s].dist2) << what << " slot " << s;
  }
}

// knn() is one nearer-child-first pass that prunes a far child by the
// ball of the current k-th distance; checked against brute force.
template <int D>
void expect_knn_exact(const SeparatorIndex<D>& index,
                      std::span<const geo::Point<D>> pts,
                      const geo::Point<D>& q, std::size_t k,
                      std::uint32_t exclude, const std::string& what) {
  expect_rows_equal(index.knn(q, k, exclude).take_sorted(),
                    brute_knn<D>(pts, q, k, exclude), what);
}

struct IndexCase {
  workload::Kind kind;
  std::size_t n;
};

class SeparatorIndexRadius : public ::testing::TestWithParam<IndexCase> {};

TEST_P(SeparatorIndexRadius, FixedRadiusMatchesBruteForce) {
  auto [kind, n] = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(kind));
  auto pts = workload::generate<2>(kind, n, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.seed = rng.next();
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());

  for (int q = 0; q < 100; ++q) {
    geo::Point<2> c{{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)}};
    double r = rng.uniform(0.0, 0.3);
    std::vector<std::uint32_t> got;
    index.for_each_in_ball(c, r, [&](std::uint32_t id, double d2) {
      EXPECT_DOUBLE_EQ(d2, geo::distance2(pts[id], c));
      got.push_back(id);
    });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_in_ball<2>(span, c, r)) << "query " << q;
    EXPECT_EQ(index.count_in_ball(c, r), got.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SeparatorIndexRadius,
    ::testing::Values(IndexCase{workload::Kind::UniformCube, 2000},
                      IndexCase{workload::Kind::GaussianClusters, 2000},
                      IndexCase{workload::Kind::AdversarialSlab, 1500},
                      IndexCase{workload::Kind::Duplicates, 1500},
                      IndexCase{workload::Kind::NearCollinear, 1000}));

TEST(SeparatorIndex, KnnMatchesKdTreeExactly) {
  Rng rng(42);
  auto pts = workload::uniform_cube<2>(3000, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());
  knn::KdTree<2> tree(span);

  for (int q = 0; q < 200; ++q) {
    geo::Point<2> p{{rng.uniform(), rng.uniform()}};
    std::size_t k = 1 + rng.below(8);
    auto got = index.knn(p, k).take_sorted();
    auto expect = tree.query(p, k).take_sorted();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].index, expect[s].index) << "query " << q;
      EXPECT_DOUBLE_EQ(got[s].dist2, expect[s].dist2);
    }
  }
}

TEST(SeparatorIndex, SelfExclusionKnn) {
  Rng rng(43);
  auto pts = workload::uniform_cube<2>(800, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());
  knn::KdTree<2> tree(span);
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto got = index.knn(pts[i], 3, i).take_sorted();
    auto expect = tree.query(pts[i], 3, i).take_sorted();
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(got[s].index, expect[s].index);
  }

  // Per-query exclude, one per row: a self-query skipping itself, a
  // self-query skipping some other point, a free query skipping nothing.
  std::vector<geo::Point<2>> queries;
  std::vector<std::uint32_t> exclude;
  for (int i = 0; i < 300; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.below(pts.size()));
    const auto other = static_cast<std::uint32_t>(rng.below(pts.size()));
    const geo::Point<2> free{{rng.uniform(), rng.uniform()}};
    queries.push_back(i % 3 == 2 ? free : pts[id]);
    exclude.push_back(i % 3 == 0   ? id
                      : i % 3 == 1 ? other
                                   : SeparatorIndex<2>::kNoExclude);
  }
  auto rows = index.batch_knn(par::ThreadPool::global(),
                              std::span<const geo::Point<2>>(queries), 6,
                              exclude);
  ASSERT_EQ(rows.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string tag = "exclude row " + std::to_string(q);
    expect_rows_equal(rows[q], brute_knn<2>(span, queries[q], 6, exclude[q]),
                      tag);
    expect_knn_exact<2>(index, span, queries[q], 6, exclude[q], tag);
  }
}

TEST(SeparatorIndex, KGreaterThanPopulation) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}, {{2.0, 0.0}}};
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  auto got = index.knn(geo::Point<2>{{0.1, 0.0}}, 10).take_sorted();
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].index, 0u);
}

TEST(SeparatorIndex, QueryFarOutsideTheData) {
  Rng rng(44);
  auto pts = workload::uniform_cube<2>(500, rng);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  geo::Point<2> far{{1000.0, -1000.0}};
  auto got = index.knn(far, 2).take_sorted();
  ASSERT_EQ(got.size(), 2u);
  // Verify against linear scan.
  knn::TopK ref(2);
  for (std::size_t j = 0; j < pts.size(); ++j)
    ref.offer(geo::distance2(pts[j], far), static_cast<std::uint32_t>(j));
  auto expect = ref.take_sorted();
  EXPECT_EQ(got[0].index, expect[0].index);
  EXPECT_EQ(got[1].index, expect[1].index);

  // Queries ten data diameters outside the box, in every direction.
  std::span<const geo::Point<2>> span(pts);
  const double diameter = std::sqrt(2.0);  // of the unit square
  for (int q = 0; q < 100; ++q) {
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const geo::Point<2> c{{0.5 + 10.0 * diameter * std::cos(angle),
                           0.5 + 10.0 * diameter * std::sin(angle)}};
    expect_knn_exact<2>(index, span, c, 1 + rng.below(16),
                        SeparatorIndex<2>::kNoExclude,
                        "far query " + std::to_string(q));
  }
}

TEST(SeparatorIndex, ZeroRadiusAndNegativeRadius) {
  std::vector<geo::Point<2>> pts{{{0.5, 0.5}}, {{0.5, 0.5}}, {{1.0, 1.0}}};
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  // Closed ball of radius 0 at a duplicated site finds both copies.
  EXPECT_EQ(index.count_in_ball(geo::Point<2>{{0.5, 0.5}}, 0.0), 2u);
  EXPECT_EQ(index.count_in_ball(geo::Point<2>{{0.5, 0.5}}, -1.0), 0u);
}

TEST(SeparatorIndex, AllIdenticalPoints) {
  std::vector<geo::Point<2>> pts(300, geo::Point<2>{{7.0, 7.0}});
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  EXPECT_EQ(index.count_in_ball(geo::Point<2>{{7.0, 7.0}}, 0.1), 300u);
  auto got = index.knn(geo::Point<2>{{7.0, 7.0}}, 5).take_sorted();
  EXPECT_EQ(got.size(), 5u);

  // The copies are unsplittable: one big leaf, far above leaf_size,
  // where every answer is a 300-way tie broken by id.
  std::span<const geo::Point<2>> span(pts);
  ASSERT_EQ(index.leaf_count(), 1u);
  for (const geo::Point<2>& q :
       {geo::Point<2>{{7.0, 7.0}}, geo::Point<2>{{7.0, 7.5}},
        geo::Point<2>{{-100.0, 3.0}}})
    for (std::size_t k : {1u, 5u, 33u, 299u, 300u, 301u})
      for (std::uint32_t ex : {SeparatorIndex<2>::kNoExclude, 0u, 150u})
        expect_knn_exact<2>(index, span, q, k, ex,
                            "k " + std::to_string(k) + " exclude " +
                                std::to_string(ex));

  // The same big leaf deep inside a normally split tree: 200 copies of
  // one site among uniform points.
  Rng rng(61);
  auto mixed = workload::uniform_cube<2>(1500, rng);
  mixed.insert(mixed.begin() + 700, 200, geo::Point<2>{{0.5, 0.5}});
  std::span<const geo::Point<2>> mspan(mixed);
  SeparatorIndexConfig small_leaves;
  small_leaves.leaf_size = 8;
  SeparatorIndex<2> deep(mspan, small_leaves, par::ThreadPool::global());
  for (int q = 0; q < 60; ++q) {
    const geo::Point<2> c =
        q % 3 == 0 ? geo::Point<2>{{0.5, 0.5}}
                   : geo::Point<2>{{0.5 + rng.uniform(-0.05, 0.05),
                                    0.5 + rng.uniform(-0.05, 0.05)}};
    expect_knn_exact<2>(deep, mspan, c, 1 + rng.below(260),
                        SeparatorIndex<2>::kNoExclude,
                        "cluster query " + std::to_string(q));
  }
}

TEST(SeparatorIndex, ThreeDimensions) {
  Rng rng(45);
  auto pts = workload::uniform_cube<3>(1500, rng);
  std::span<const geo::Point<3>> span(pts);
  SeparatorIndexConfig cfg;
  SeparatorIndex<3> index(span, cfg, par::ThreadPool::global());
  knn::KdTree<3> tree(span);
  for (int q = 0; q < 50; ++q) {
    geo::Point<3> p{{rng.uniform(), rng.uniform(), rng.uniform()}};
    auto got = index.knn(p, 4).take_sorted();
    auto expect = tree.query(p, 4).take_sorted();
    for (std::size_t s = 0; s < 4; ++s)
      EXPECT_EQ(got[s].index, expect[s].index);
  }

  // Plus an 8x8x8 lattice whose exact-distance shells tie across ids,
  // queried inside the cube, at lattice sites and outside the box.
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x)
        pts.push_back({{2.0 + x, 2.0 + y, 2.0 + z}});
  std::span<const geo::Point<3>> lspan(pts);
  SeparatorIndexConfig small_leaves;
  small_leaves.leaf_size = 8;
  SeparatorIndex<3> lattice(lspan, small_leaves, par::ThreadPool::global());
  for (int q = 0; q < 150; ++q) {
    geo::Point<3> c;
    if (q % 3 == 0)
      c = {{rng.uniform(), rng.uniform(), rng.uniform()}};
    else if (q % 3 == 1)
      c = {{2.0 + rng.below(8), 2.0 + rng.below(8), 2.0 + rng.below(8)}};
    else
      c = {{rng.uniform(-40.0, 50.0), rng.uniform(-40.0, 50.0), -60.0}};
    expect_knn_exact<3>(lattice, lspan, c, 1 + rng.below(27),
                        SeparatorIndex<3>::kNoExclude,
                        "3d query " + std::to_string(q));
  }
}

TEST(SeparatorIndex, HeightIsLogarithmic) {
  Rng rng(46);
  auto pts = workload::uniform_cube<2>(32768, rng);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  EXPECT_LE(index.height(), 5 * 15u);  // c * log2(n)
  EXPECT_GE(index.leaf_count(), 32768u / cfg.leaf_size / 4);
}

TEST(SeparatorIndex, BatchRadiusMatchesBruteForce) {
  Rng rng(48);
  auto pts = workload::gaussian_clusters<2>(2500, 4, 0.03, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<2> index(span, cfg, pool);

  std::vector<geo::Point<2>> queries;
  for (int q = 0; q < 300; ++q)
    queries.push_back({{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)}});
  double radius = 0.15;
  auto rows = index.batch_radius(
      pool, std::span<const geo::Point<2>>(queries), radius);
  ASSERT_EQ(rows.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::uint32_t> got;
    for (const auto& [id, d2] : rows[q]) {
      EXPECT_DOUBLE_EQ(d2, geo::distance2(pts[id], queries[q]));
      got.push_back(id);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_in_ball<2>(span, queries[q], radius))
        << "query " << q;
  }
}

TEST(SeparatorIndex, BatchRadiusDeterministicAcrossPoolSizes) {
  Rng rng(49);
  auto pts = workload::uniform_cube<2>(2000, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  par::ThreadPool solo(1);
  par::ThreadPool quad(4);
  SeparatorIndex<2> index(span, cfg, solo);

  std::vector<geo::Point<2>> queries;
  for (int q = 0; q < 500; ++q)
    queries.push_back({{rng.uniform(), rng.uniform()}});
  std::span<const geo::Point<2>> qspan(queries);
  auto a = index.batch_radius(solo, qspan, 0.1);
  auto b = index.batch_radius(quad, qspan, 0.1);
  // Bit-identical rows, including the within-row order.
  EXPECT_EQ(a, b);
}

TEST(SeparatorIndex, BatchRadiusEdgeCases) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}};
  SeparatorIndexConfig cfg;
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg, pool);
  // Empty query batch.
  EXPECT_TRUE(
      index.batch_radius(pool, std::span<const geo::Point<2>>(), 1.0)
          .empty());
  // Negative radius: rows exist but are empty.
  std::vector<geo::Point<2>> queries{{{0.0, 0.0}}};
  auto rows = index.batch_radius(
      pool, std::span<const geo::Point<2>>(queries), -1.0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].empty());
}

TEST(SeparatorIndex, BatchKnnMatchesSingleQueries) {
  Rng rng(50);
  auto pts = workload::uniform_cube<2>(1500, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<2> index(span, cfg, pool);
  knn::KdTree<2> tree(span);

  std::vector<geo::Point<2>> queries;
  for (int q = 0; q < 200; ++q)
    queries.push_back({{rng.uniform(), rng.uniform()}});
  std::size_t k = 5;
  auto rows =
      index.batch_knn(pool, std::span<const geo::Point<2>>(queries), k);
  ASSERT_EQ(rows.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto expect = tree.query(queries[q], k).take_sorted();
    ASSERT_EQ(rows[q].size(), expect.size());
    for (std::size_t s = 0; s < expect.size(); ++s) {
      EXPECT_EQ(rows[q][s].index, expect[s].index) << "query " << q;
      EXPECT_DOUBLE_EQ(rows[q][s].dist2, expect[s].dist2);
    }
  }
}

TEST(SeparatorIndex, HyperplanePartitionVariant) {
  Rng rng(47);
  auto pts = workload::uniform_cube<2>(2000, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.partition = PartitionRule::HyperplaneMedian;
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());
  for (int q = 0; q < 50; ++q) {
    geo::Point<2> c{{rng.uniform(), rng.uniform()}};
    double r = rng.uniform(0.0, 0.2);
    EXPECT_EQ(index.count_in_ball(c, r), brute_in_ball<2>(span, c, r).size());
  }
}

}  // namespace
}  // namespace sepdc::core
