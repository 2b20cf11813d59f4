// Workload graph_build: core::build_knn_graph (the §6 engine), k=8, over
// uniform points in D=3 on a pool of nproc threads, built repeatedly in
// one process. Every build is checked against a KdTree::all_knn oracle.
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/api.hpp"
#include "knn/kdtree.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

namespace {

using P3 = sepdc::geo::Point<3>;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t rows_hash(const sepdc::knn::KnnResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(r.neighbors.data(), r.neighbors.size() * sizeof(std::uint32_t), h);
  return fnv1a(r.dist2.data(), r.dist2.size() * sizeof(double), h);
}

struct Window {
  Samples build_s, cpu_s;
  std::vector<std::pair<double, double>> steal_build_s;
  std::size_t mismatches = 0;
};

// Builds until `seconds` have passed (at least three builds); only the
// build call is timed. Each build's rows must hash like `expected`.
Window build_window(std::span<const P3> points,
                    const sepdc::core::Config& cfg,
                    sepdc::par::ThreadPool& pool, double seconds,
                    std::uint64_t expected, TraceCtx ctx) {
  Window w;
  const auto start = Clock::now();
  while (w.build_s.size() < 3 || seconds_since(start) < seconds) {
    const std::uint64_t req = ctx.request();
    Span request(ctx.buf, ctx.log, "request", req);
    std::uint64_t h = 0;
    {
      Span call(ctx.buf, ctx.log, "core.build_knn_graph", req,
                request.index());
      const CpuTicks ticks0 = cpu_ticks();
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      auto out = sepdc::core::build_knn_graph<3>(points, kGraphK, cfg, pool);
      const double build_s = seconds_since(t0);
      w.build_s.add(build_s);
      w.cpu_s.add(process_cpu_seconds() - cpu0);
      w.steal_build_s.emplace_back(steal_share(ticks0, cpu_ticks()), build_s);
      call.end();
      Span check(ctx.buf, ctx.log, "check", req, request.index());
      h = rows_hash(out.knn);
    }
    if (h != expected) ++w.mismatches;
  }
  return w;
}

}  // namespace

void run_graph_build(const Args& args, Result& r, SpanLog* log) {
  const auto points = graph_build_points(args, args.input);
  const std::span<const P3> pts(points);
  sepdc::core::Config cfg;
  cfg.seed = args.seed;
  sepdc::par::ThreadPool pool;

  // Set-up: the cold first build of this process.
  const double setup_cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  auto cold = sepdc::core::build_knn_graph<3>(pts, kGraphK, cfg, pool);
  r.detail("setup_wall_s", seconds_since(t0));
  // Set-up is gated as the CPU time it takes (README.md, "Host steal").
  const double setup_s = process_cpu_seconds() - setup_cpu0;
  const std::uint64_t expected = rows_hash(cold.knn);

  Window w;
  if (!log) {
    w = build_window(pts, cfg, pool, args.seconds, expected, TraceCtx{});
    // A request is one warm build; its answers are the n rows it fills.
    // Wall times are taken over the builds the host stole least from.
    const double build_s = quiet_median(w.steal_build_s);
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.detail("answers_per_s", static_cast<double>(points.size()) / build_s);
    r.detail("request_p50_us", build_s * 1e6);
    r.metric("cpu_us_per_answer",
             w.cpu_s.median() * 1e6 / static_cast<double>(points.size()),
             "us");
  } else {
    const double half = std::max(args.seconds / 3.0, 0.5);
    Window plain = build_window(pts, cfg, pool, half, expected, TraceCtx{});
    const auto before = pool.stats();
    w = build_window(pts, cfg, pool, half, expected,
                     TraceCtx::for_thread(log));
    const auto after = pool.stats();
    const double traced = w.build_s.median();
    w.mismatches += plain.mismatches;
    w.build_s.append(plain.build_s);
    record_replay_layers(r, *log, plain.build_s.median() * 1e6,
                         traced * 1e6, before, after);
  }
  r.detail("graph_build_s", w.build_s.median());
  r.detail("graph_build_max_s", w.build_s.quantile(1.0));
  r.detail("graph_build_cpu_s", w.cpu_s.median());
  double steal_sum = 0.0;
  for (const auto& [steal, s] : w.steal_build_s) steal_sum += steal;
  r.detail("host_steal_share",
           steal_sum / static_cast<double>(w.steal_build_s.size()));
  r.detail("builds", static_cast<double>(w.build_s.size() + 1));
  r.detail("model_work", static_cast<double>(cold.cost.work));
  r.detail("model_depth", static_cast<double>(cold.cost.depth));

  // Correctness, off the clock: the cold build's rows against the
  // kd-tree oracle byte for byte; every later build hashed equal to it.
  sepdc::knn::KdTree<3> tree(pts);
  const auto oracle = tree.all_knn(pool, kGraphK);
  if (args.inject_fault) cold.knn.neighbors[0] ^= 1u;
  const bool rows_equal =
      oracle.neighbors.size() == cold.knn.neighbors.size() &&
      oracle.dist2.size() == cold.knn.dist2.size() &&
      std::memcmp(oracle.neighbors.data(), cold.knn.neighbors.data(),
                  oracle.neighbors.size() * sizeof(std::uint32_t)) == 0 &&
      std::memcmp(oracle.dist2.data(), cold.knn.dist2.data(),
                  oracle.dist2.size() * sizeof(double)) == 0;
  r.attempted += 1 + w.build_s.size();
  if (!rows_equal) {
    // Every build hashed like the cold one, so a wrong cold build means
    // every build is wrong.
    r.fail("graph_build: rows differ from the KdTree::all_knn oracle",
           1 + w.build_s.size() - w.mismatches);
  }
  if (w.mismatches > 0)
    r.fail("graph_build: " + std::to_string(w.mismatches) +
               " builds differ from the first build",
           w.mismatches);
}

}  // namespace perfbench
