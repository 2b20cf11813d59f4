// Layer probes of the serving stack (traced runs only).
//
// The ladder: one seeded serve_read stream of single knn (k=8) queries
// runs through each layer in turn —
//   knn.dist2 kernel (ns per point), core.index single query,
//   broker idle (fast lane: the inline call on the caller's thread, the
//   baseline), broker under load (nproc closed-loop clients, default
//   config), router S=1, router S=4 (same load) —
// and a layer's cost is the difference between adjacent rungs. Every
// rung's answers are checked against the index rung's rows.
//
// Beside the ladder: index build and batch kernels, the kd-tree, the
// delta tier (inserts into the hot cluster of the serve_churn input) and
// the io layer (sharded save and load of that input).
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/separator_index.hpp"
#include "knn/kdtree.hpp"
#include "knn/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "service/query_broker.hpp"
#include "service/shard_router.hpp"
#include "support/metrics.hpp"

namespace perfbench {

namespace {

using P2 = sepdc::geo::Point<2>;
using Broker = sepdc::service::QueryBroker<2>;
using Router = sepdc::service::ShardRouter<2>;

// Closed loop of `clients` clients (0: nproc), each cycling through
// `queries` from its own offset and calling `knn(q)` for `seconds`.
// Returns per-request latencies (us); wrong rows are counted in `wrong`.
template <class Knn>
Samples loaded_rung(const char* name, const std::vector<P2>& queries,
                    const std::vector<KnnRow>& expect, double seconds,
                    SpanLog* log, std::uint64_t& wrong, Knn knn,
                    unsigned clients = 0) {
  if (clients == 0)
    clients = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Samples> lat(clients);
  std::vector<std::uint64_t> bad(clients, 0);
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        TraceCtx ctx = TraceCtx::for_thread(log);
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        std::size_t i = c * queries.size() / clients;
        while (Clock::now() < deadline) {
          const std::uint64_t req = ctx.request();
          Span span(ctx.buf, ctx.log, name, req);
          const auto t0 = Clock::now();
          KnnRow row = knn(queries[i]);
          lat[c].add(micros_between(t0, Clock::now()));
          span.end();
          if (!same_row(row, expect[i])) ++bad[c];
          i = (i + 1) % queries.size();
        }
      });
  }
  Samples all;
  for (unsigned c = 0; c < clients; ++c) {
    all.append(lat[c]);
    wrong += bad[c];
  }
  return all;
}

// Median of `reps` timed calls of fn(), seconds; before() runs untimed
// ahead of each call.
template <class Fn, class Before>
double median_seconds(int reps, Fn fn, Before before) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    before();
    const auto t0 = Clock::now();
    fn();
    s.add(seconds_since(t0));
  }
  return s.median();
}

void ladder(const Args& args, Result& r, SpanLog* log) {
  const Sizes sz = sizes_for(args);
  const auto points = serve_read_points(args);
  const std::span<const P2> pts(points);
  const double radius = radius_for_hits(points.size(), kRadiusHits);
  sepdc::par::ThreadPool pool;
  TraceCtx ctx = TraceCtx::for_thread(log);

  // Each timed build starts with the previous structure already freed.
  std::unique_ptr<sepdc::core::SeparatorIndex<2>> index;
  r.metric("core.index.build_s",
           median_seconds(3, [&] {
             index = std::make_unique<sepdc::core::SeparatorIndex<2>>(
                 pts, sepdc::core::SeparatorIndexConfig{}, pool);
           }, [&] { index.reset(); }),
           "s");
  std::unique_ptr<sepdc::knn::KdTree<2>> tree;
  r.metric("service.snapshot.kdtree_build_s",
           median_seconds(3, [&] {
             tree = std::make_unique<sepdc::knn::KdTree<2>>(pts);
           }, [&] { tree.reset(); }),
           "s");

  sepdc::Rng rng(args.seed * 31 + 0x1add);
  std::vector<P2> queries(sz.ladder_queries);
  for (auto& q : queries) q = read_query<2>(rng);

  // Rung: the dist2 kernel over the index's own block store.
  {
    const auto& blocks = index->blocks();
    const std::size_t nb = blocks.block_count();
    std::vector<double> out(nb * sepdc::knn::kernels::kBlockWidth);
    constexpr std::size_t kKernelQueries = 16;
    Samples ns;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t req = ctx.request();
      Span span(ctx.buf, ctx.log, "ladder.knn.dist2", req);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kKernelQueries; ++i)
        sepdc::knn::kernels::dist2_blocks(blocks.block_coords(0), nb, 2,
                                          queries[i].coords.data(),
                                          out.data());
      ns.add(micros_between(t0, Clock::now()) * 1e3 /
             static_cast<double>(kKernelQueries * blocks.size()));
    }
    r.metric("knn.dist2_ns_per_point", ns.median(), "ns");
  }

  // Rung: one index query on the caller's thread. Its rows are the
  // reference every other rung must reproduce.
  std::vector<KnnRow> expect(queries.size());
  Samples index_us, index_radius_us, kd_us;
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.core.index.knn", req);
    const auto t0 = Clock::now();
    expect[i] = index->knn(queries[i], kReadK).take_sorted();
    index_us.add(micros_between(t0, Clock::now()));
  }
  for (const P2& q : queries) {
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.core.index.radius", req);
    RadiusRow row;
    const auto t0 = Clock::now();
    index->for_each_in_ball(q, radius, [&](std::uint32_t id, double d2) {
      row.emplace_back(id, d2);
    });
    index_radius_us.add(micros_between(t0, Clock::now()));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.knn.kdtree", req);
    const auto t0 = Clock::now();
    KnnRow row = tree->query(queries[i], kReadK).take_sorted();
    kd_us.add(micros_between(t0, Clock::now()));
    if (!same_row(row, expect[i])) ++wrong;
  }
  r.metric("core.index.knn_p50_us", index_us.median(), "us");
  r.metric("core.index.knn_p99_us", index_us.quantile(0.99), "us");
  r.metric("core.index.radius_p50_us", index_radius_us.median(), "us");
  r.metric("knn.kdtree_knn_p50_us", kd_us.median(), "us");

  // Batch kernels against a loop of singles over the same 64 queries.
  {
    Samples batch_knn, batch_radius, loop_knn;
    for (std::size_t b = 0; b + kBulk <= queries.size(); b += kBulk) {
      const std::span<const P2> chunk(queries.data() + b, kBulk);
      const std::uint64_t req = ctx.request();
      {
        Span span(ctx.buf, ctx.log, "ladder.core.index.batch_knn", req);
        const auto t0 = Clock::now();
        auto rows = index->batch_knn(pool, chunk, kReadK);
        batch_knn.add(micros_between(t0, Clock::now()) / kBulk);
        for (std::size_t i = 0; i < kBulk; ++i)
          if (!same_row(rows[i], expect[b + i])) ++wrong;
      }
      {
        Span span(ctx.buf, ctx.log, "ladder.core.index.batch_radius", req);
        const auto t0 = Clock::now();
        auto rows = index->batch_radius(pool, chunk, radius);
        batch_radius.add(micros_between(t0, Clock::now()) / kBulk);
      }
      {
        Span span(ctx.buf, ctx.log, "ladder.core.index.loop_knn", req);
        const auto t0 = Clock::now();
        for (const P2& q : chunk) index->knn(q, kReadK);
        loop_knn.add(micros_between(t0, Clock::now()) / kBulk);
      }
    }
    r.metric("core.index.batch_knn_us_per_query", batch_knn.median(), "us");
    r.metric("core.index.batch_radius_us_per_query", batch_radius.median(),
             "us");
    r.metric("core.index.loop_knn_us_per_query", loop_knn.median(), "us");
  }

  // Rung: broker idle, one client, fast lane on: the inline call.
  double inline_us = 0.0;
  {
    sepdc::service::BrokerConfig cfg;
    cfg.slo.fast_lane = true;
    Broker broker(pts, cfg, pool);
    Samples us;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::uint64_t req = ctx.request();
      Span span(ctx.buf, ctx.log, "ladder.service.broker.inline", req);
      const auto t0 = Clock::now();
      KnnRow row = broker.knn(queries[i], kReadK);
      us.add(micros_between(t0, Clock::now()));
      if (!same_row(row, expect[i])) ++wrong;
    }
    inline_us = us.median();
    r.metric("service.broker.inline_knn_p50_us", inline_us, "us");
  }

  // Rung: broker under load, default config.
  double load_us = 0.0;
  {
    Broker broker(pts, sepdc::service::BrokerConfig{}, pool);
    const auto before = broker.stats();
    load_us = loaded_rung("ladder.service.broker.load", queries, expect,
                          sz.rung_seconds, log, wrong,
                          [&](const P2& q) { return broker.knn(q, kReadK); })
                  .median();
    const auto st = broker.stats();
    const double submitted = static_cast<double>(st.submitted - before.submitted);
    r.metric("service.broker.load_knn_p50_us", load_us, "us");
    r.metric("service.broker.queue_wait_p99_us",
             st.queue_wait.delta_since(before.queue_wait).p99_us(), "us");
    r.metric("service.broker.batch_execute_p50_us",
             st.batch_execute.delta_since(before.batch_execute).p50_us(), "us");
    r.metric("service.broker.flush_size_mean",
             st.flush_size.delta_since(before.flush_size).mean(), "count");
    r.metric("service.broker.batched_share",
             static_cast<double>(st.batched - before.batched) / submitted,
             "ratio");
    r.metric("service.broker.punted_share",
             static_cast<double>(st.punted - before.punted) / submitted,
             "ratio");
  }

  // Rungs: the router at S=1 and S=4 under the same load.
  double router_us[2] = {0.0, 0.0};
  const std::uint32_t shard_counts[2] = {1, 4};
  for (int v = 0; v < 2; ++v) {
    sepdc::service::ShardRouterConfig cfg;
    cfg.shards = shard_counts[v];
    Router router(pts, cfg, pool);
    router_us[v] =
        loaded_rung(v == 0 ? "ladder.service.router.s1" : "ladder.service.router.s4",
                    queries, expect, sz.rung_seconds, log, wrong,
                    [&](const P2& q) { return router.knn(q, kReadK); })
            .median();
    if (v == 1) {
      const auto st = router.stats();
      r.metric("service.router.boundary_fanout", st.boundary_fanout, "ratio");
      r.metric("service.router.shard_visits_per_query",
               static_cast<double>(st.shard_visits) /
                   static_cast<double>(std::max<std::size_t>(st.submitted, 1)),
               "ratio");
    }
  }
  r.metric("service.router.s1_knn_p50_us", router_us[0], "us");
  r.metric("service.router.s4_knn_p50_us", router_us[1], "us");

  // Adjacent-rung differences: what each layer adds to one knn.
  r.metric("ladder.cost.broker_inline_us", inline_us - index_us.median(), "us");
  r.metric("ladder.cost.broker_batching_us", load_us - inline_us, "us");
  r.metric("ladder.cost.router_us", router_us[0] - load_us, "us");
  r.metric("ladder.cost.sharding_us", router_us[1] - router_us[0], "us");

  r.attempted += queries.size();
  if (wrong)
    r.fail("ladder: " + std::to_string(wrong) +
               " rows differ from the index rung",
           wrong);
}

// Delta tier and io layer on the serve_churn input.
void delta_and_io(const Args& args, Result& r, SpanLog* log) {
  const Sizes sz = sizes_for(args);
  const ChurnData data = serve_churn_data(args);
  sepdc::par::ThreadPool pool;
  TraceCtx ctx = TraceCtx::for_thread(log);
  sepdc::service::ShardRouterConfig cfg;
  cfg.shards = kChurnShards;
  const std::string path =
      (std::filesystem::path(args.work_dir) /
       ("layers_" + std::to_string(args.seed) + ".snap"))
          .string();
  {
    Router builder(std::span<const P2>(data.points), cfg, pool);
    r.metric("io.save_s",
             median_seconds(3, [&] {
               const std::uint64_t req = ctx.request();
               Span span(ctx.buf, ctx.log, "ladder.io.save", req);
               builder.save_current(path);
             }, [] {}),
             "s");
  }
  double bytes = 0.0;
  for (std::uint32_t s = 0; s <= kChurnShards; ++s) {
    const std::string f = s == kChurnShards ? path : Router::shard_path(path, s);
    bytes += static_cast<double>(std::filesystem::file_size(f));
  }
  r.metric("io.snapshot_bytes", bytes, "bytes");

  sepdc::Rng rng(args.seed ^ 0xde17a);
  const P2 first_q = churn_point(data, data.hot, rng);
  std::unique_ptr<Router> router;
  r.metric("io.load_s",
           median_seconds(3, [&] {
             const std::uint64_t req = ctx.request();
             Span span(ctx.buf, ctx.log, "ladder.io.load", req);
             router = std::make_unique<Router>(path, cfg, pool);
             router->knn(first_q, kReadK);
           }, [&] { router.reset(); }),
           "s");

  // Inserts of fresh ids into the hot cluster, one at a time.
  Samples insert_us;
  const auto n = static_cast<std::uint32_t>(data.points.size());
  for (std::uint32_t i = 0; i < sz.delta_inserts; ++i) {
    const P2 p = churn_point(data, data.hot, rng);
    const std::uint64_t req = ctx.request();
    Span span(ctx.buf, ctx.log, "ladder.service.delta.insert", req);
    const auto t0 = Clock::now();
    router->insert(n + i, p);
    insert_us.add(micros_between(t0, Clock::now()));
  }
  router->drain_rebuilds();
  const auto agg = router->aggregated_stats();
  sepdc::metrics::HistogramSnapshot compaction;
  for (std::uint32_t s = 0; s < router->shard_count(); ++s)
    compaction.merge(router->shard_stats(s).compaction_build);
  r.metric("service.delta.insert_p50_us", insert_us.median(), "us");
  r.metric("service.delta.insert_p99_us", insert_us.quantile(0.99), "us");
  r.metric("service.delta.compactions", static_cast<double>(agg.compactions),
           "count");
  r.metric("service.delta.compaction_build_p50_us", compaction.p50_us(), "us");
  r.metric("service.delta.compaction_build_p99_us", compaction.p99_us(), "us");
  r.metric("service.delta.peak", static_cast<double>(agg.delta_peak), "count");
  r.attempted += sz.delta_inserts;
  if (router->live_count() != data.points.size() + sz.delta_inserts)
    r.fail("delta: live_count disagrees with the inserts made");

  // Read capacity of the serve_churn router: as many closed-loop clients
  // as serve_churn has senders, single knn reads over the clusters. Its
  // offered read rate is derived from this figure (README.md).
  {
    std::vector<P2> queries(sz.ladder_queries);
    for (auto& q : queries)
      q = churn_point(data,
                      static_cast<std::uint32_t>(rng.below(data.centers.size())),
                      rng);
    std::vector<KnnRow> expect(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      expect[i] = router->knn(queries[i], kReadK);
    std::uint64_t wrong = 0;
    const Samples us =
        loaded_rung("ladder.service.router.churn_capacity", queries, expect,
                    sz.rung_seconds, log, wrong,
                    [&](const P2& q) { return router->knn(q, kReadK); },
                    kChurnSenders);
    r.metric("service.router.churn_capacity_qps",
             static_cast<double>(us.size()) / sz.rung_seconds, "1/s");
    r.attempted += queries.size();
    if (wrong)
      r.fail("delta: " + std::to_string(wrong) +
                 " concurrent router reads differ from sequential ones",
             wrong);
  }

  router.reset();
  std::error_code ec;
  for (std::uint32_t s = 0; s < kChurnShards; ++s)
    std::filesystem::remove(Router::shard_path(path, s), ec);
  std::filesystem::remove(path, ec);
}

}  // namespace

void run_serve_layers(const Args& args, Result& r, SpanLog* log) {
  ladder(args, r, log);
  delta_and_io(args, r, log);
}

}  // namespace perfbench
