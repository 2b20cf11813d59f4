// Layer probes of the §6 engine and the separator search, on the
// graph_build input (traced runs only).
#include <string>

#include "common.hpp"
#include "core/api.hpp"
#include "core/separator_search.hpp"
#include "geometry/constants.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

void run_engine_layers(const Args& args, Result& r, SpanLog* log) {
  using P3 = sepdc::geo::Point<3>;
  const auto points = graph_build_points(args);
  const std::span<const P3> pts(points);
  sepdc::core::Config cfg;
  cfg.seed = args.seed;
  TraceCtx ctx = TraceCtx::for_thread(log);

  // One build on the full pool: the exact model counts and diagnostics.
  sepdc::par::ThreadPool pool;
  {
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.core.engine", req);
    const auto out = sepdc::core::build_knn_graph<3>(pts, kGraphK, cfg, pool);
    span.end();
    r.metric("core.engine.model_work", static_cast<double>(out.cost.work),
             "count");
    r.metric("core.engine.model_depth", static_cast<double>(out.cost.depth),
             "count");
    r.metric("core.engine.separator_attempts",
             static_cast<double>(out.diag.separator_attempts), "count");
    r.metric("core.engine.fast_corrections",
             static_cast<double>(out.diag.fast_corrections), "count");
    r.metric("core.engine.punts", static_cast<double>(out.diag.punts),
             "count");
    r.metric("core.engine.march_aborts",
             static_cast<double>(out.diag.march_aborts), "count");
    r.metric("core.engine.total_cut_balls",
             static_cast<double>(out.diag.total_cut_balls), "count");
  }

  // The same build on a one-thread pool: the plain sequential baseline
  // (the build above already warmed the process).
  {
    sepdc::par::ThreadPool single(1);
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.core.engine_single_thread", req);
    const auto t0 = Clock::now();
    sepdc::core::build_knn_graph<3>(pts, kGraphK, cfg, single);
    r.metric("core.engine.single_thread_s", seconds_since(t0), "s");
  }

  // One separator search over the root set, as the engine's first node
  // draws it.
  Samples find_s;
  for (int rep = 0; rep < 5; ++rep) {
    sepdc::Rng rng(cfg.seed + static_cast<std::uint64_t>(rep));
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.separator.find", req);
    const auto t0 = Clock::now();
    auto outcome = sepdc::core::find_point_separator<3>(
        points.size(), [&](std::size_t i) { return points[i]; },
        cfg.partition, sepdc::geo::splitting_ratio(3) + cfg.delta_slack,
        cfg.max_separator_attempts, 0, rng, cfg.cost);
    find_s.add(seconds_since(t0));
    if (!outcome.shape) r.fail("separator: no separator for the root set");
  }
  r.metric("separator.find_s", find_s.median(), "s");
}

}  // namespace perfbench
