// Workload serve_churn: a ShardRouter<2> with S=4, bootstrapped from a
// sharded snapshot saved beforehand (off the clock) over Gaussian-
// clustered points. An open loop at fixed rates sends single knn and
// radius reads, inserts of fresh ids and removes of live ids; writes are
// skewed to one hot cluster. Latency is timed from each request's due
// time, and the generator's own lateness is reported beside it.
//
// Gates: every write is followed by an acknowledgement probe (contains()
// and a knn(p, 1) read must reflect it: zero stale reads); the final live
// set is compared with a std::map oracle; sampled final-state reads are
// compared with brute force; router and shard counters are reconciled.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "service/shard_router.hpp"

namespace perfbench {

namespace {

using P2 = sepdc::geo::Point<2>;
using Router = sepdc::service::ShardRouter<2>;

// Offered load, derived from figures of the traced run (README.md,
// "serve_churn's offered load"): reads at about a tenth of the router's
// closed-loop read capacity with kChurnSenders clients
// (service.router.churn_capacity_qps, 34k-45k/s), and hot-shard writes at
// about a tenth of what one shard absorbs with compactions back to back
// (delta_compaction_threshold / service.delta.compaction_build_p50_us,
// 256 per 48-56 ms, 4.6k-5.4k/s): 480 hot writes/s, about two hot-shard
// compactions a second.
constexpr double kReadsPerS = 3000.0;
constexpr double kWritesPerS = 600.0;
constexpr double kHotShare = 0.8;     // writes that go to the hot cluster
// Mean gap between due times. A generator whose median lateness exceeds
// it could not hold the offered rate, and the run is flagged. Its p99
// lateness (host stalls it shares with the service) is reported beside
// the latencies, which count it because they are timed from due time.
constexpr double kMeanGapUs = 1e6 / (kReadsPerS + kWritesPerS);

enum class Op : std::uint8_t { Knn, Radius, Insert, Remove };

struct Event {
  double due_s;
  Op op;
  std::uint32_t id;
  P2 p;
};

// The seeded request stream. Stateful across windows so that inserted
// ids stay fresh and every removed id is removed once.
class Schedule {
 public:
  Schedule(const ChurnData& data, std::uint64_t seed)
      : data_(data), rng_(seed), next_id_(static_cast<std::uint32_t>(
                                     data.points.size())) {
    for (std::uint32_t i = 0; i < data.points.size(); ++i)
      (data.cluster[i] == data.hot ? hot_ : cold_).push_back(i);
    rng_.shuffle(hot_);
    rng_.shuffle(cold_);
  }

  std::vector<Event> next(double seconds) {
    std::vector<Event> out;
    const double rate = kReadsPerS + kWritesPerS;
    const double write_share = kWritesPerS / rate;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng_.uniform()) / rate;  // Poisson arrivals
      if (t >= seconds) break;
      Event e{t, Op::Knn, 0, P2{}};
      if (rng_.coin(write_share)) {
        const bool hot = rng_.coin(kHotShare);
        if (rng_.coin(0.5)) {
          e.op = Op::Insert;
          e.id = next_id_++;
          e.p = churn_point(data_, hot ? data_.hot : any_cluster(), rng_);
        } else {
          auto& pool = hot && !hot_.empty() ? hot_ : cold_;
          if (pool.empty()) continue;
          e.op = Op::Remove;
          e.id = pool.back();
          pool.pop_back();
          e.p = data_.points[e.id];
        }
      } else {
        e.op = rng_.coin(0.5) ? Op::Knn : Op::Radius;
        e.p = churn_point(data_, any_cluster(), rng_);
      }
      out.push_back(e);
    }
    return out;
  }

 private:
  std::uint32_t any_cluster() {
    return static_cast<std::uint32_t>(rng_.below(data_.centers.size()));
  }

  const ChurnData& data_;
  sepdc::Rng rng_;
  std::uint32_t next_id_;
  std::vector<std::uint32_t> hot_, cold_;
};

// The live set as the benchmark believes it to be.
struct Oracle {
  std::mutex mu;
  std::map<std::uint32_t, P2> live;
};

struct WindowStats {
  Samples knn_us, radius_us, write_us, all_us, late_us;
  Slices slices;
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU time over the window
  std::uint64_t reads = 0, probes = 0, inserts = 0, removes = 0;
  std::uint64_t stale = 0;
  std::uint64_t errors = 0;
};

struct SenderLog {
  Samples knn_us, radius_us, write_us;
  std::vector<Completion> done;
  std::uint64_t reads = 0, probes = 0, inserts = 0, removes = 0;
  std::uint64_t stale = 0, errors = 0;

  // Records a completion now; returns its latency from due time (us).
  double finish(Clock::time_point start, Clock::time_point due) {
    const auto now = Clock::now();
    const double us = micros_between(due, now);
    done.push_back({micros_between(start, now) / 1e6, us, 1});
    return us;
  }
};

// Open loop: one generator thread releases each event at its due time
// into a queue that kChurnSenders threads drain. The generator's lateness is
// its own wake-up error; a backlog of released events waiting for a free
// sender is the system's, and shows in the latency timed from due time.
WindowStats churn_window(Router& router, const std::vector<Event>& events,
                         double radius, Oracle& oracle, SpanLog* log,
                         Result& r) {
  std::mutex qmu;
  std::condition_variable qcv;
  // Released event indices; preallocated so the generator never faults in
  // fresh memory (a page fault can stall behind the service's own
  // mapping changes, which would read as generator lateness).
  std::vector<std::size_t> ready(events.size(), 0);
  std::size_t released = 0, taken = 0;
  bool done = false;
  std::vector<SenderLog> logs(kChurnSenders);
  std::vector<double> late(events.size(), 0.0);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  StealSampler steal(start);
  const double cpu0 = process_cpu_seconds();
  auto due_of = [&](const Event& e) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(e.due_s));
  };
  auto sender = [&](SenderLog& w) {
    TraceCtx ctx = TraceCtx::for_thread(log);
    while (true) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(qmu);
        qcv.wait(lock, [&] { return done || taken < released; });
        if (taken == released) return;
        i = ready[taken++];
      }
      const Event& e = events[i];
      const auto due = due_of(e);
      const std::uint64_t req = ctx.request();
      Span request(ctx.buf, ctx.log, "request", req);
      try {
        switch (e.op) {
          case Op::Knn: {
            Span call(ctx.buf, ctx.log, "service.router.knn", req,
                      request.index());
            router.knn(e.p, kReadK);
            call.end();
            w.knn_us.add(w.finish(start, due));
            ++w.reads;
            break;
          }
          case Op::Radius: {
            Span call(ctx.buf, ctx.log, "service.router.radius", req,
                      request.index());
            router.radius(e.p, radius);
            call.end();
            w.radius_us.add(w.finish(start, due));
            ++w.reads;
            break;
          }
          case Op::Insert:
          case Op::Remove: {
            const bool ins = e.op == Op::Insert;
            {
              Span call(ctx.buf, ctx.log,
                        ins ? "service.router.insert"
                            : "service.router.remove",
                        req, request.index());
              if (ins) router.insert(e.id, e.p);
              else router.remove(e.id);
            }
            w.write_us.add(w.finish(start, due));
            ++(ins ? w.inserts : w.removes);
            // Acknowledgement probe, off the clock: the write must be
            // visible to every read submitted after it returned.
            Span probe(ctx.buf, ctx.log, "ack_probe", req, request.index());
            const auto row = router.knn(e.p, 1);
            ++w.probes;
            const bool found = !row.empty() && row[0].index == e.id;
            if (router.contains(e.id) != ins || found != ins) ++w.stale;
            std::lock_guard<std::mutex> lock(oracle.mu);
            if (ins) oracle.live.emplace(e.id, e.p);
            else oracle.live.erase(e.id);
            break;
          }
        }
      } catch (const std::exception& ex) {
        ++w.errors;
        r.fail(std::string("serve_churn: request threw: ") + ex.what());
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kChurnSenders; ++t)
      threads.emplace_back([&, t] { sender(logs[t]); });
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto due = due_of(events[i]);
      std::this_thread::sleep_until(due);
      late[i] = micros_between(due, Clock::now());
      {
        std::lock_guard<std::mutex> lock(qmu);
        ready[released++] = i;
      }
      qcv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(qmu);
      done = true;
    }
    qcv.notify_all();
  }
  WindowStats s;
  s.seconds = std::max(seconds_since(start), 1e-9);
  s.cpu_s = process_cpu_seconds() - cpu0;
  steal.stop();
  for (double l : late) s.late_us.add(l);
  std::vector<Completion> completions;
  for (const auto& w : logs) {
    completions.insert(completions.end(), w.done.begin(), w.done.end());
    s.knn_us.append(w.knn_us);
    s.radius_us.append(w.radius_us);
    s.write_us.append(w.write_us);
    s.all_us.append(w.knn_us);
    s.all_us.append(w.radius_us);
    s.all_us.append(w.write_us);
    s.reads += w.reads;
    s.probes += w.probes;
    s.inserts += w.inserts;
    s.removes += w.removes;
    s.stale += w.stale;
    s.errors += w.errors;
  }
  s.slices.add_window(completions, s.seconds, &steal);
  return s;
}

// Final-state gates, off the clock.
void verify_final(Router& router, Oracle& oracle, const ChurnData& data,
                  double radius, bool inject_fault, bool tiny, Result& r) {
  router.drain_rebuilds();
  std::vector<P2> pts;
  std::vector<std::uint32_t> ids;
  pts.reserve(oracle.live.size());
  ids.reserve(oracle.live.size());
  for (const auto& [id, p] : oracle.live) {
    ids.push_back(id);
    pts.push_back(p);
  }
  if (router.live_count() != ids.size())
    r.fail("serve_churn: live_count " + std::to_string(router.live_count()) +
           " != oracle " + std::to_string(ids.size()));
  // Every id ever touched plus a sample of the untouched ones.
  std::uint64_t wrong = 0;
  const std::uint32_t total_ids =
      ids.empty() ? 0 : std::max<std::uint32_t>(ids.back() + 1,
                                                 static_cast<std::uint32_t>(
                                                     data.points.size()));
  for (std::uint32_t id = 0; id < total_ids; ++id) {
    const bool touched = id >= data.points.size() || !oracle.live.count(id);
    if (!touched && id % 97 != 0) continue;
    if (router.contains(id) != (oracle.live.count(id) == 1)) ++wrong;
  }
  if (wrong)
    r.fail("serve_churn: " + std::to_string(wrong) +
               " ids disagree with the std::map oracle",
           wrong);
  // Sampled final-state reads against brute force over the oracle.
  sepdc::Rng rng(data.points.size() ^ 0xf1a1);
  std::uint64_t bad = 0;
  const int checks = tiny ? 20 : 100;
  for (int i = 0; i < checks; ++i) {
    const P2 q = churn_point(
        data, static_cast<std::uint32_t>(rng.below(data.centers.size())),
        rng);
    KnnRow row = router.knn(q, kReadK);
    RadiusRow rad = router.radius(q, radius);
    if (inject_fault && i == 0 && !row.empty()) row[0].index ^= 1u;
    if (!same_row(row, brute_knn<2>(pts, ids, q, kReadK))) ++bad;
    if (!same_row(rad, brute_radius<2>(pts, ids, q, radius))) ++bad;
  }
  if (bad)
    r.fail("serve_churn: " + std::to_string(bad) +
               " final-state reads differ from brute force",
           bad);
}

}  // namespace

void run_serve_churn(const Args& args, Result& r, SpanLog* log) {
  sepdc::par::ThreadPool pool;
  const ChurnData data = serve_churn_data(args, args.input);
  const double radius = radius_for_hits(data.points.size(), kRadiusHits);
  sepdc::service::ShardRouterConfig cfg;
  cfg.shards = kChurnShards;
  const std::string path =
      (std::filesystem::path(args.work_dir) /
       ("churn_" + std::to_string(args.seed) + "_" +
        std::to_string(args.input) + ".snap"))
          .string();
  {
    Router builder(std::span<const P2>(data.points), cfg, pool);
    builder.save_current(path);
  }
  // The snapshot stands in for one saved beforehand: peak memory counts
  // from here, the bootstrap and the window, not the build that saved it.
  if (!reset_peak_rss())
    r.detail("peak_rss_includes_save", 1.0);
  sepdc::Rng qrng(args.seed * 131 + args.input);
  const P2 first_q = churn_point(data, data.hot, qrng);

  // Set-up: router bootstrap from the snapshot until its first answer.
  const double setup_cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  Router router(path, cfg, pool);
  router.knn(first_q, kReadK);
  r.detail("setup_wall_s", seconds_since(t0));
  // Set-up is gated as the CPU time it takes (README.md, "Host steal").
  const double setup_s = process_cpu_seconds() - setup_cpu0;
  std::uint64_t attempts = 1;

  Oracle oracle;
  for (std::uint32_t i = 0; i < data.points.size(); ++i)
    oracle.live.emplace_hint(oracle.live.end(), i, data.points[i]);
  Schedule schedule(data, args.seed * 7919 + 17 + args.input);

  std::vector<WindowStats> windows;
  if (!log) {
    windows.push_back(churn_window(router, schedule.next(args.seconds),
                                   radius, oracle, nullptr, r));
    const WindowStats& w = windows.back();
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.detail("answers_per_s", w.slices.answers_per_s.median());
    // Over the slices the host stole least from (quiet_median).
    r.detail("request_p50_us", w.slices.quiet_p50_us());
    r.metric("cpu_us_per_answer",
             w.cpu_s * 1e6 / static_cast<double>(std::max<std::size_t>(
                                 w.all_us.size(), 1)),
             "us");
  } else {
    const double part = std::max(args.seconds / 3.0, 0.5);
    windows.push_back(churn_window(router, schedule.next(part), radius,
                                   oracle, nullptr, r));
    const auto before = pool.stats();
    windows.push_back(churn_window(router, schedule.next(part), radius,
                                   oracle, log, r));
    const auto after = pool.stats();
    record_replay_layers(r, *log, windows[0].all_us.median(),
                         windows[1].all_us.median(), before, after);
  }
  const WindowStats& w = windows.back();
  r.detail("request_p99_us", w.slices.p99_us.median());
  r.detail("request_p50_all_slices_us", w.slices.p50_us.median());
  r.detail("knn_p50_us", w.knn_us.median());
  r.detail("knn_p99_us", w.knn_us.quantile(0.99));
  r.detail("radius_p50_us", w.radius_us.median());
  r.detail("radius_p99_us", w.radius_us.quantile(0.99));
  r.detail("write_p50_us", w.write_us.median());
  r.detail("write_p99_us", w.write_us.quantile(0.99));
  r.detail("generator_late_p50_us", w.late_us.median());
  r.detail("generator_late_p99_us", w.late_us.quantile(0.99));
  r.detail("generator_behind", w.late_us.median() > kMeanGapUs ? 1.0 : 0.0);
  r.detail("offered_per_s", kReadsPerS + kWritesPerS);

  std::uint64_t stale = 0, inserts = 0, removes = 0;
  for (const WindowStats& win : windows) {
    r.attempted += win.all_us.size() + win.errors;
    attempts += win.reads + win.probes;
    stale += win.stale;
    inserts += win.inserts;
    removes += win.removes;
  }
  if (stale)
    r.fail("serve_churn: " + std::to_string(stale) +
               " stale reads after a write",
           stale);

  // Reconciliation at quiescence (before the final gates add queries).
  const auto rs = router.stats();
  if (rs.submitted + rs.shed != attempts)
    r.fail("serve_churn: router attempts " + std::to_string(attempts) +
           " != submitted + shed " + std::to_string(rs.submitted + rs.shed));
  if (rs.shed != 0)
    r.fail("serve_churn: " + std::to_string(rs.shed) + " queries shed",
           rs.shed);
  if (rs.inserts != inserts || rs.removes != removes)
    r.fail("serve_churn: router update counters disagree with the stream");
  for (std::uint32_t s = 0; s < router.shard_count(); ++s) {
    const auto ss = router.shard_stats(s);
    if (ss.batched + ss.punted + ss.fast_lane != ss.submitted)
      r.fail("serve_churn: shard " + std::to_string(s) +
             " batched + punted + fast_lane != submitted");
  }
  const auto agg = router.aggregated_stats();
  r.detail("compactions", static_cast<double>(agg.compactions));
  r.detail("boundary_fanout", agg.boundary_fanout);

  verify_final(router, oracle, data, radius, args.inject_fault, args.tiny, r);
  std::error_code ec;
  for (std::uint32_t s = 0; s < kChurnShards; ++s)
    std::filesystem::remove(Router::shard_path(path, s), ec);
  std::filesystem::remove(path, ec);
}

}  // namespace perfbench
