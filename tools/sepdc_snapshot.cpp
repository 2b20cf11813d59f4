// Snapshot save/verify CLI: the cross-build half of the persistence
// story (docs/persistence.md).
//
// `--mode=save` builds the index over a deterministic seeded workload
// and writes a snapshot; `--mode=verify` regenerates the same workload,
// rebuilds a reference in *this* binary, loads the snapshot, and checks
// that the loaded structures answer a seeded query battery identically
// to the fresh build. CI runs save under one kernel variant (AVX2
// dispatch on) and verify under another (-DSEPDC_ENABLE_AVX2=OFF), so a
// snapshot written by one ISA configuration is proven to serve
// bit-identical answers under the other — the on-disk format encodes
// geometry, never kernel choices.
//
// Exit codes: 0 ok, 1 answer/byte mismatch, 2 snapshot I/O error,
// 3 usage error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "io/snapshot_file.hpp"
#include "parallel/thread_pool.hpp"
#include "service/snapshot.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace {

using sepdc::Rng;
using sepdc::geo::Point;
using sepdc::knn::TopK;

constexpr int kDims = 2;

int g_mismatches = 0;

void mismatch(const std::string& what) {
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  ++g_mismatches;
}

// Bitwise double equality: the differential contract is "same bytes",
// not "close enough" — kernel variants must agree exactly.
bool same_bits(double a, double b) {
  std::uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

std::vector<Point<kDims>> make_points(const std::string& kind_name,
                                      std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto kind = sepdc::workload::parse_kind(kind_name);
  return sepdc::workload::generate<kDims>(kind, n, rng);
}

std::vector<Point<kDims>> make_queries(std::span<const Point<kDims>> pts,
                                       std::size_t count,
                                       std::uint64_t seed) {
  // Half fresh uniform points, half exact data points: the latter force
  // zero-distance ties, the hardest case for cross-variant determinism.
  Rng rng(seed + 0x9e3779b97f4a7c15ull);
  auto queries = sepdc::workload::uniform_cube<kDims>((count + 1) / 2, rng);
  while (queries.size() < count && !pts.empty())
    queries.push_back(pts[rng.below(pts.size())]);
  return queries;
}

void compare_knn(const std::string& label, TopK got, TopK want) {
  auto g = got.take_sorted();
  auto w = want.take_sorted();
  if (g.size() != w.size()) {
    mismatch(label + ": " + std::to_string(g.size()) + " rows vs " +
             std::to_string(w.size()));
    return;
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i].index != w[i].index || !same_bits(g[i].dist2, w[i].dist2)) {
      mismatch(label + ": row " + std::to_string(i) + " id " +
               std::to_string(g[i].index) + " vs " +
               std::to_string(w[i].index));
      return;
    }
  }
}

// Ball-march enumeration order depends on node slot numbering, which is
// thread-schedule dependent across *builds*; sort before comparing so
// only the answer set (with exact distances) is the contract here.
std::vector<std::pair<std::uint32_t, double>> sorted_ball(
    const sepdc::core::SeparatorIndex<kDims>& index,
    const Point<kDims>& center, double radius) {
  std::vector<std::pair<std::uint32_t, double>> rows;
  index.for_each_in_ball(center, radius, [&](std::uint32_t id, double d2) {
    rows.emplace_back(id, d2);
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

int run_verify(const std::string& path,
               const std::vector<Point<kDims>>& points, std::size_t k,
               std::size_t query_count, std::uint64_t seed,
               const sepdc::core::SeparatorIndexConfig& cfg,
               sepdc::par::ThreadPool& pool) {
  auto loaded = sepdc::io::load_snapshot<kDims>(path);
  if (loaded.point_count != points.size()) {
    mismatch("snapshot holds " + std::to_string(loaded.point_count) +
             " points, workload regenerates " +
             std::to_string(points.size()));
    return 1;
  }
  // The point section must be byte-identical to the regenerated
  // workload: generators are seeded and platform-independent.
  std::span<const Point<kDims>> lp = loaded.index->points();
  if (std::memcmp(lp.data(), points.data(),
                  points.size() * sizeof(Point<kDims>)) != 0)
    mismatch("point section differs from the regenerated workload");

  // Fresh reference build in this binary (this kernel variant).
  auto ref =
      sepdc::service::SnapshotStore<kDims>::build(points, cfg, pool, 1);

  auto queries = make_queries(points, query_count, seed);
  const double radius = 4.0 * std::sqrt(double(k) / double(points.size()));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const std::string tag = "query " + std::to_string(i);
    compare_knn(tag + " index knn", loaded.index->knn(q, k),
                ref->index->knn(q, k));
    if (sorted_ball(*loaded.index, q, radius) !=
        sorted_ball(*ref->index, q, radius))
      mismatch(tag + " radius answer set");
  }
  if (g_mismatches != 0) return 1;
  std::printf("verify OK: %zu points, %zu queries, k=%zu, %zu file bytes "
              "(saved_version %llu)\n",
              points.size(), queries.size(), k, loaded.file_bytes,
              static_cast<unsigned long long>(loaded.saved_version));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sepdc::Cli cli;
  cli.flag("mode", "save", "save | verify | info")
      .flag("path", "", "snapshot file path (required)")
      .flag("n", "20000", "workload size")
      .flag("seed", "1992", "workload + build seed")
      .flag("kind", "uniform",
            "workload kind (uniform|ball|clusters|grid|shell|slab|"
            "collinear|duplicates)")
      .flag("k", "8", "neighbors per verify query")
      .flag("queries", "256", "verify query count")
      .flag("leaf_size", "32", "index leaf size");
  if (!cli.parse(argc, argv)) return 0;

  const std::string mode = cli.get("mode");
  const std::string path = cli.get("path");
  if (path.empty()) {
    std::fprintf(stderr, "--path is required\n");
    return 3;
  }

  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  sepdc::core::SeparatorIndexConfig cfg;
  cfg.seed = seed;
  cfg.leaf_size = static_cast<std::size_t>(cli.get_int("leaf_size"));

  try {
    if (mode == "info") {
      auto loaded = sepdc::io::load_snapshot<kDims>(path);
      std::printf("dims=%d points=%zu file_bytes=%zu saved_version=%llu "
                  "index_height=%zu leaves=%zu\n",
                  kDims, loaded.point_count, loaded.file_bytes,
                  static_cast<unsigned long long>(loaded.saved_version),
                  loaded.index->height(), loaded.index->leaf_count());
      return 0;
    }

    auto points = make_points(cli.get("kind"), n, seed);
    sepdc::par::ThreadPool pool;
    if (mode == "save") {
      auto snap =
          sepdc::service::SnapshotStore<kDims>::build(points, cfg, pool, 1);
      sepdc::io::save_snapshot<kDims>(path, *snap->index, snap->version);
      std::printf("saved %zu points to '%s'\n", points.size(),
                  path.c_str());
      return 0;
    }
    if (mode == "verify")
      return run_verify(path, points,
                        static_cast<std::size_t>(cli.get_int("k")),
                        static_cast<std::size_t>(cli.get_int("queries")),
                        seed, cfg, pool);
  } catch (const sepdc::io::SnapshotIoError& e) {
    std::fprintf(stderr, "snapshot error: %s\n", e.what());
    return 2;
  }

  std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
  return 3;
}
