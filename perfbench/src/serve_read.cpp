// Workload serve_read: a read-only QueryBroker<2> with the default
// BrokerConfig over uniform points, driven by a closed loop of nproc
// clients. Each client sends a seeded mix of single knn (k=8), single
// radius and bulk_knn of 64; about 5% of query points lie outside the
// data box. Sampled answers are checked against brute force, tie order
// included, and the broker's outcome counters are reconciled.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "service/query_broker.hpp"

namespace perfbench {

namespace {

using P2 = sepdc::geo::Point<2>;
using Broker = sepdc::service::QueryBroker<2>;

struct SampledKnn {
  P2 q;
  KnnRow row;
};
struct SampledRadius {
  P2 q;
  RadiusRow row;
};

// One client's view of a window.
struct ClientLog {
  Samples knn_us, radius_us, bulk_us, all_us;
  std::vector<Completion> done;
  std::uint64_t queries = 0;
  std::vector<SampledKnn> knn_checks;
  std::vector<SampledRadius> radius_checks;
};

constexpr double kWarmupS = 0.5;
constexpr std::size_t kSampleEvery = 16;
constexpr std::size_t kMaxChecksPerClient = 100;

void client_loop(Broker& broker, double radius, std::uint64_t stream_seed,
                 Clock::time_point start, double seconds, SpanLog* log,
                 ClientLog& out) {
  TraceCtx ctx = TraceCtx::for_thread(log);
  sepdc::Rng rng(stream_seed);
  std::vector<P2> bulk(kBulk);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t n = 0; Clock::now() < deadline; ++n) {
    const double u = rng.uniform();
    const bool sample =
        n % kSampleEvery == 0 &&
        out.knn_checks.size() + out.radius_checks.size() < kMaxChecksPerClient;
    const std::uint64_t req = ctx.request();
    Span request(ctx.buf, ctx.log, "request", req);
    if (u < 0.45) {
      const P2 q = read_query<2>(rng);
      Span call(ctx.buf, ctx.log, "service.broker.knn", req, request.index());
      const auto t0 = Clock::now();
      KnnRow row = broker.knn(q, kReadK);
      const double us = micros_between(t0, Clock::now());
      call.end();
      out.knn_us.add(us);
      out.all_us.add(us);
      out.queries += 1;
      out.done.push_back({seconds_since(start), us, 1});
      if (sample) out.knn_checks.push_back({q, std::move(row)});
    } else if (u < 0.90) {
      const P2 q = read_query<2>(rng);
      Span call(ctx.buf, ctx.log, "service.broker.radius", req,
                request.index());
      const auto t0 = Clock::now();
      RadiusRow row = broker.radius(q, radius);
      const double us = micros_between(t0, Clock::now());
      call.end();
      out.radius_us.add(us);
      out.all_us.add(us);
      out.queries += 1;
      out.done.push_back({seconds_since(start), us, 1});
      if (sample) out.radius_checks.push_back({q, std::move(row)});
    } else {
      for (auto& q : bulk) q = read_query<2>(rng);
      Span call(ctx.buf, ctx.log, "service.broker.bulk_knn", req,
                request.index());
      const auto t0 = Clock::now();
      auto rows = broker.bulk_knn(bulk, kReadK);
      const double us = micros_between(t0, Clock::now());
      call.end();
      out.bulk_us.add(us);
      out.all_us.add(us);
      out.queries += kBulk;
      out.done.push_back({seconds_since(start), us, kBulk});
      if (sample)
        for (std::size_t i = 0; i < kBulk; i += kBulk / 4)
          out.knn_checks.push_back({bulk[i], std::move(rows[i])});
    }
  }
}

struct WindowResult {
  std::vector<ClientLog> clients;
  double seconds = 0.0;
  Samples knn_us, radius_us, bulk_us, all_us;
  Slices slices;
  std::uint64_t queries = 0;
  double cpu_s = 0.0;  // process CPU time over the window
  double steal = 0.0;  // the host's steal share over the window
};

WindowResult read_window(Broker& broker, double radius, std::uint64_t seed,
                         double seconds, SpanLog* log) {
  const unsigned clients = std::max(1u, std::thread::hardware_concurrency());
  WindowResult w;
  w.clients.resize(clients);
  const auto t0 = Clock::now();
  StealSampler steal(t0);
  const double cpu0 = process_cpu_seconds();
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        client_loop(broker, radius, seed * 1000003ULL + c, t0, seconds, log,
                    w.clients[c]);
      });
  }
  w.seconds = seconds_since(t0);
  w.cpu_s = process_cpu_seconds() - cpu0;
  steal.stop();
  std::vector<Completion> done;
  for (const auto& c : w.clients) {
    done.insert(done.end(), c.done.begin(), c.done.end());
    w.knn_us.append(c.knn_us);
    w.radius_us.append(c.radius_us);
    w.bulk_us.append(c.bulk_us);
    w.all_us.append(c.all_us);
    w.queries += c.queries;
  }
  w.slices.add_window(done, seconds, &steal);
  w.steal = steal.share(0.0, w.seconds);
  return w;
}

// Checks sampled answers against brute force on the pool; returns how
// many rows it checked.
std::size_t verify(const std::vector<P2>& points, double radius,
            std::vector<WindowResult>& windows, bool inject_fault,
            sepdc::par::ThreadPool& pool, Result& r) {
  std::vector<SampledKnn*> knn;
  std::vector<SampledRadius*> rad;
  for (auto& w : windows)
    for (auto& c : w.clients) {
      for (auto& s : c.knn_checks) knn.push_back(&s);
      for (auto& s : c.radius_checks) rad.push_back(&s);
    }
  if (inject_fault && !knn.empty() && !knn[0]->row.empty())
    knn[0]->row[0].index ^= 1u;
  const std::vector<std::uint32_t> no_ids;
  std::vector<char> bad_knn(knn.size(), 0), bad_rad(rad.size(), 0);
  sepdc::par::parallel_for(pool, 0, knn.size(), [&](std::size_t i) {
    bad_knn[i] = !same_row(knn[i]->row,
                           brute_knn<2>(points, no_ids, knn[i]->q, kReadK));
  }, 1);
  sepdc::par::parallel_for(pool, 0, rad.size(), [&](std::size_t i) {
    bad_rad[i] = !same_row(rad[i]->row,
                           brute_radius<2>(points, no_ids, rad[i]->q, radius));
  }, 1);
  const auto nk = static_cast<std::uint64_t>(
      std::count(bad_knn.begin(), bad_knn.end(), 1));
  const auto nr = static_cast<std::uint64_t>(
      std::count(bad_rad.begin(), bad_rad.end(), 1));
  if (nk) r.fail("serve_read: " + std::to_string(nk) + " of " +
                     std::to_string(knn.size()) + " sampled knn rows wrong",
                 nk);
  if (nr) r.fail("serve_read: " + std::to_string(nr) + " of " +
                     std::to_string(rad.size()) + " sampled radius rows wrong",
                 nr);
  return knn.size() + rad.size();
}

}  // namespace

void run_serve_read(const Args& args, Result& r, SpanLog* log) {
  sepdc::par::ThreadPool pool;
  const auto points = serve_read_points(args, args.input);
  const double radius = radius_for_hits(points.size(), kRadiusHits);
  sepdc::Rng qrng(args.seed * 131 + args.input);
  const P2 first_q = read_query<2>(qrng, 0.0);

  // Set-up: broker construction from points until its first answer.
  const double setup_cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  Broker broker(std::span<const P2>(points), sepdc::service::BrokerConfig{},
                pool);
  broker.knn(first_q, kReadK);
  r.detail("setup_wall_s", seconds_since(t0));
  // Set-up is gated as the CPU time it takes (README.md, "Host steal").
  const double setup_s = process_cpu_seconds() - setup_cpu0;

  std::vector<WindowResult> windows;
  const std::uint64_t stream = args.seed * 977 + args.input * 7;
  if (!log) {
    // Warm-up, checked but not measured: lets the pool's threads, the
    // allocator and the caches settle after the cold set-up.
    windows.push_back(read_window(broker, radius, stream + 1,
                                  std::min(kWarmupS, args.seconds / 4), nullptr));
    windows.push_back(
        read_window(broker, radius, stream, args.seconds, nullptr));
    const WindowResult& w = windows.back();
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.detail("answers_per_s", w.slices.answers_per_s.median());
    // Over the slices the host stole least from (quiet_median).
    r.detail("request_p50_us", w.slices.quiet_p50_us());
    r.metric("cpu_us_per_answer",
             w.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                 w.queries, 1)),
             "us");
  } else {
    const double part = std::max(args.seconds / 3.0, 0.5);
    windows.push_back(read_window(broker, radius, stream, part, nullptr));
    const auto before = pool.stats();
    windows.push_back(read_window(broker, radius, stream + 1, part, log));
    const auto after = pool.stats();
    record_replay_layers(r, *log, windows[0].all_us.median(),
                         windows[1].all_us.median(), before, after);
  }
  const WindowResult& w = windows.back();
  r.detail("read_qps", static_cast<double>(w.queries) / w.seconds);
  r.detail("window_steal_pct", 100.0 * w.steal);
  r.detail("request_p99_us", w.slices.p99_us.median());
  r.detail("knn_p50_us", w.knn_us.median());
  r.detail("knn_p99_us", w.knn_us.quantile(0.99));
  r.detail("radius_p50_us", w.radius_us.median());
  r.detail("radius_p99_us", w.radius_us.quantile(0.99));
  r.detail("bulk_p50_us", w.bulk_us.median());
  r.detail("bulk_p99_us", w.bulk_us.quantile(0.99));

  // Reconciliation at quiescence: every accepted query has exactly one
  // outcome, and nothing was shed (attempts == submitted + shed).
  std::uint64_t attempts = 1;  // the set-up answer
  for (const auto& win : windows) {
    attempts += win.queries;
    r.attempted += win.all_us.size();
  }
  const auto st = broker.stats();
  if (st.batched + st.punted + st.fast_lane != st.submitted)
    r.fail("serve_read: batched + punted + fast_lane != submitted");
  if (st.submitted + st.shed != attempts)
    r.fail("serve_read: attempts " + std::to_string(attempts) +
           " != submitted + shed " + std::to_string(st.submitted + st.shed));
  const std::size_t checked =
      verify(points, radius, windows, args.inject_fault, pool, r);
  r.detail("checked_rows", static_cast<double>(checked));
}

}  // namespace perfbench
