// Fixed-radius and k-NN query service over the separator index.
//
// Builds the paper's partition tree once and answers two classic spatial
// workloads against it — "all points within r of q" (the Lemma 6.3
// reachability march) and "k nearest to q" (one nearer-child-first pass) —
// comparing throughput and answers against a linear scan and a kd-tree.
//
//   ./radius_search --n=100000 --queries=5000 --radius=0.01
#include <cstdio>
#include <span>
#include <vector>

#include "core/separator_index.hpp"
#include "knn/kdtree.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace sepdc;
  Cli cli;
  cli.flag("n", "100000", "indexed points")
      .flag("queries", "5000", "queries of each kind")
      .flag("radius", "0.01", "fixed-radius query radius")
      .flag("k", "8", "k for k-NN queries")
      .flag("seed", "17", "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto q = static_cast<std::size_t>(cli.get_int("queries"));
  const double radius = cli.get_double("radius");
  const auto k = static_cast<std::size_t>(cli.get_int("k"));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  auto& pool = par::ThreadPool::global();

  auto points = workload::gaussian_clusters<2>(n, 25, 0.02, rng);
  std::span<const geo::Point<2>> span(points);

  Timer build_timer;
  core::SeparatorIndexConfig cfg;
  cfg.seed = rng.next();
  core::SeparatorIndex<2> index(span, cfg, pool);
  double index_build = build_timer.seconds();

  build_timer.reset();
  knn::KdTree<2> kd(span);
  double kd_build = build_timer.seconds();

  std::vector<geo::Point<2>> probes(q);
  for (auto& p : probes) p = {{rng.uniform(), rng.uniform()}};

  // Fixed-radius queries.
  Timer t;
  std::size_t index_hits = 0;
  for (const auto& p : probes)
    index_hits += index.count_in_ball(p, radius);
  double index_radius_s = t.seconds();

  t.reset();
  std::size_t scan_hits = 0;
  for (const auto& p : probes) {
    double r2 = radius * radius;
    for (const auto& x : points)
      if (geo::distance2(x, p) <= r2) ++scan_hits;
  }
  double scan_radius_s = t.seconds();

  // k-NN queries (answers compared for exactness).
  t.reset();
  std::size_t agree = 0;
  double index_knn_s = 0.0, kd_knn_s = 0.0;
  for (const auto& p : probes) {
    Timer ti;
    auto a = index.knn(p, k).take_sorted();
    index_knn_s += ti.seconds();
    Timer tk;
    auto b = kd.query(p, k).take_sorted();
    kd_knn_s += tk.seconds();
    bool same = a.size() == b.size();
    for (std::size_t s = 0; same && s < a.size(); ++s)
      same = a[s].index == b[s].index;
    agree += same ? 1 : 0;
  }

  std::printf("separator index over %zu points "
              "(height %zu, %zu leaves, build %.3f s; kd-tree build %.3f s)\n",
              n, index.height(), index.leaf_count(), index_build, kd_build);
  std::printf("fixed-radius r=%.3g over %zu queries:\n", radius, q);
  std::printf("  index %.3f s (%.1f us/q) | linear scan %.3f s (%.1f us/q) "
              "| speedup %.0fx | hits agree: %s (%zu)\n",
              index_radius_s, 1e6 * index_radius_s / double(q),
              scan_radius_s, 1e6 * scan_radius_s / double(q),
              scan_radius_s / index_radius_s,
              index_hits == scan_hits ? "yes" : "NO", index_hits);
  std::printf("k-NN (k=%zu) over %zu queries:\n", k, q);
  std::printf("  index %.3f s (%.1f us/q) | kd-tree %.3f s (%.1f us/q) | "
              "exact agreement %zu/%zu\n",
              index_knn_s, 1e6 * index_knn_s / double(q), kd_knn_s,
              1e6 * kd_knn_s / double(q), agree, q);
  return (index_hits == scan_hits && agree == q) ? 0 : 1;
}
