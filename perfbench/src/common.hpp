// Shared pieces of the repository benchmark: command line, the result
// record, order statistics, request spans and input generators.
//
// The benchmark drives the library only through its public headers and
// only with inputs generated here from --seed. Every timed answer is
// checked off the clock; a violation is counted in Result::failed and
// clears Result::correct.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "knn/topk.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs (20k points): the self-test runs every workload in
  // seconds with this.
  bool tiny = false;
  // Corrupts one checked answer before its gate runs, so the self-test
  // can prove the gate fires.
  bool inject_fault = false;
  // Which input of the seed's family this process serves (run.py spreads
  // a run over several processes, one input each).
  std::uint32_t input = 0;
  // Directory for scratch files (snapshots) and the Chrome trace.
  std::string work_dir = ".bench_build/work";
};

Args parse_args(int argc, char** argv);

// Sorted-sample order statistics (exact, not bucketed).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  // Linear interpolation between order statistics; q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();
// Resets the VmHWM high-water mark to the current resident set (Linux
// /proc/self/clear_refs), after returning freed heap to the system, so a
// later peak_rss_mb() sees only what follows. False where unsupported.
bool reset_peak_rss();

// CPU time of every thread of this process, seconds. With paravirtual
// steal accounting the time the hypervisor takes a vCPU away is not
// charged to the process; busy neighbours still slow it somewhat through
// the caches and memory they share.
double process_cpu_seconds();

// Cumulative steal and total jiffies of all CPUs (/proc/stat); zeros
// where it is unreadable. Steal is the time the hypervisor ran other
// guests on this VM's vCPUs.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};
CpuTicks cpu_ticks();
// Share of CPU time stolen between two readings, in [0, 1].
double steal_share(const CpuTicks& a, const CpuTicks& b);

// Median of the values measured while the host stole least: each entry
// is (steal share while measured, value), and the median is taken over
// the quarter of entries (at least one) with the lowest steal share and
// every entry whose share equals the highest of those. Host
// steal on a vCPU stalls whatever runs there, and a fork-join or a flush
// timer waits for it; samples taken while little was stolen are the ones
// that measure the program rather than the host. 0 when empty.
double quiet_median(std::vector<std::pair<double, double>> steal_value);

// Samples cpu_ticks() every 50 ms on a thread of its own from
// construction until stop(), so a window can be cut into slices and each
// slice given the host's steal share.
class StealSampler {
 public:
  explicit StealSampler(Clock::time_point start);
  ~StealSampler() { stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  void stop();
  // Steal share between t0_s and t1_s seconds after `start` (nearest
  // samples); call after stop().
  double share(double t0_s, double t1_s) const;

 private:
  Clock::time_point start_;
  std::vector<std::pair<double, CpuTicks>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One answered request: completion time since its window started, its
// latency, and how many answers (queries) it carried.
struct Completion {
  double t_s;
  double us;
  std::uint32_t answers;
};

// A window cut into slices of about one second: answers per second,
// request p50 and request p99 of each slice with at least 1000 requests
// (ten beyond its p99). Serving figures are medians over slices, so a
// short host stall moves one slice instead of the whole run. With a
// sampler, each slice's p50 is also kept with the slice's steal share.
struct Slices {
  Samples answers_per_s, p50_us, p99_us;
  std::vector<std::pair<double, double>> steal_p50_us;
  void add_window(const std::vector<Completion>& done, double seconds,
                  const StealSampler* steal = nullptr);
  double quiet_p50_us() const { return quiet_median(steal_p50_us); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome. `metrics` becomes run.py's result line;
// `details` (name -> already-encoded JSON value) goes only to the full
// record and the "# details" line run.py prints.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> details;
  std::vector<std::string> violations;  // first few, for the log

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void detail(const std::string& name, double value);
  // Records a failed correctness gate (thread-safe).
  void fail(const std::string& what, std::uint64_t count = 1);

 private:
  std::mutex mu_;
};

// ------------------------------------------------------------- tracing
//
// Request-scoped spans recorded from the benchmark's own files around
// each call it makes into a layer. metrics::TraceEvent carries no request
// id or parent, so the benchmark keeps its own per-thread span buffers;
// timestamps come from a metrics::TraceRecorder so they share the
// library's trace clock. With a null log every Span is a no-op that
// reads no clock.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::uint64_t request;
    std::int32_t parent;  // index in the same thread buffer, -1 = root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Buffer {
    int tid = 0;
    std::vector<Record> spans;
  };

  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // The calling thread's buffer; call once per thread and keep it.
  Buffer& buffer();
  std::uint64_t now_ns() const { return recorder_.now_ns(); }
  std::uint64_t next_request() { return next_request_.fetch_add(1) + 1; }

  std::size_t span_count() const;
  // Median self time (span minus the union of its children) of the root
  // spans named `name`, microseconds.
  double median_self_us(const char* name) const;
  // Writes every span as a Chrome trace ("X" events, args: request and
  // parent) to `path`. Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  sepdc::metrics::TraceRecorder recorder_;
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

class Span {
 public:
  Span(SpanLog::Buffer* buf, const SpanLog* log, const char* name,
       std::uint64_t request, std::int32_t parent = -1)
      : buf_(buf), log_(log) {
    if (!buf_) return;
    index_ = static_cast<std::int32_t>(buf_->spans.size());
    buf_->spans.push_back(
        SpanLog::Record{name, request, parent, log_->now_ns(), 0});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  std::int32_t index() const { return index_; }
  void end() {
    if (!buf_) return;
    buf_->spans[static_cast<std::size_t>(index_)].end_ns = log_->now_ns();
    buf_ = nullptr;
  }

 private:
  SpanLog::Buffer* buf_;
  const SpanLog* log_;
  std::int32_t index_ = -1;
};

// Per-thread tracing context handed to workload loops: a null `log`
// disables every span.
struct TraceCtx {
  SpanLog* log = nullptr;
  SpanLog::Buffer* buf = nullptr;

  static TraceCtx for_thread(SpanLog* log) {
    return TraceCtx{log, log ? &log->buffer() : nullptr};
  }
  std::uint64_t request() { return log ? log->next_request() : 0; }
};

// The layer metrics a traced run takes from its own replay windows:
// tracing overhead (traced against untraced request p50), the median
// self time of "request" spans, and the pool's counters over the traced
// window (ThreadPool::stats() deltas).
void record_replay_layers(Result& r, const SpanLog& log, double untraced_p50,
                          double traced_p50,
                          const sepdc::par::ThreadPoolStats& before,
                          const sepdc::par::ThreadPoolStats& after);

// --------------------------------------------------------------- inputs

template <int D>
std::vector<sepdc::geo::Point<D>> uniform_points(std::size_t n,
                                                 sepdc::Rng& rng) {
  std::vector<sepdc::geo::Point<D>> pts(n);
  for (auto& p : pts)
    for (int i = 0; i < D; ++i) p[i] = rng.uniform();
  return pts;
}

// A query point for the read workloads: uniform in the unit box, except
// that a share `outside` lands in the band [-0.2, 1.2]^D minus the box.
template <int D>
sepdc::geo::Point<D> read_query(sepdc::Rng& rng, double outside = 0.05) {
  sepdc::geo::Point<D> q;
  if (!rng.coin(outside)) {
    for (int i = 0; i < D; ++i) q[i] = rng.uniform();
    return q;
  }
  while (true) {
    bool inside = true;
    for (int i = 0; i < D; ++i) {
      q[i] = rng.uniform(-0.2, 1.2);
      inside = inside && q[i] >= 0.0 && q[i] < 1.0;
    }
    if (!inside) return q;
  }
}

// Radius whose closed ball holds about `hits` of n uniform points in the
// unit square.
double radius_for_hits(std::size_t n, double hits);

// Input sizes shared by a workload and the layer probes that stand in
// for it, full or tiny.
struct Sizes {
  std::size_t graph_n;        // graph_build points (D=3)
  std::size_t read_n;         // serve_read points (D=2)
  std::size_t churn_n;        // serve_churn points (D=2)
  std::size_t ladder_queries;  // single queries per ladder rung
  double rung_seconds;        // closed-loop window per loaded rung
  std::size_t delta_inserts;  // inserts in the delta-tier probe
};
Sizes sizes_for(const Args& args);

inline constexpr std::size_t kGraphK = 8;
inline constexpr std::size_t kReadK = 8;
inline constexpr std::size_t kBulk = 64;
inline constexpr double kRadiusHits = 15.6;
inline constexpr std::uint32_t kChurnShards = 4;
// Threads that issue serve_churn's released requests; also the client
// count of the capacity probe its offered read rate is derived from.
inline constexpr unsigned kChurnSenders = 16;

// The seeded inputs of each workload.
std::vector<sepdc::geo::Point<3>> graph_build_points(const Args& args,
                                                    std::uint32_t input = 0);
std::vector<sepdc::geo::Point<2>> serve_read_points(const Args& args,
                                                   std::uint32_t input = 0);

struct ChurnData {
  std::vector<sepdc::geo::Point<2>> points;
  std::vector<std::uint32_t> cluster;  // cluster of each point
  std::vector<sepdc::geo::Point<2>> centers;
  std::uint32_t hot = 0;               // the cluster writes favour
  double stddev = 0.0;
};
ChurnData serve_churn_data(const Args& args, std::uint32_t input = 0);

// A point drawn from cluster c of `data`.
sepdc::geo::Point<2> churn_point(const ChurnData& data, std::uint32_t c,
                                 sepdc::Rng& rng);

// --------------------------------------------------------------- oracles

using KnnRow = std::vector<sepdc::knn::TopK::Entry>;
using RadiusRow = std::vector<std::pair<std::uint32_t, double>>;

// Brute-force k nearest over (points[i], ids[i]) sorted by (dist2, id);
// an empty `ids` means ids 0..n-1.
template <int D>
KnnRow brute_knn(const std::vector<sepdc::geo::Point<D>>& points,
                 const std::vector<std::uint32_t>& ids,
                 const sepdc::geo::Point<D>& q, std::size_t k);

template <int D>
RadiusRow brute_radius(const std::vector<sepdc::geo::Point<D>>& points,
                       const std::vector<std::uint32_t>& ids,
                       const sepdc::geo::Point<D>& q, double r);

bool same_row(const KnnRow& a, const KnnRow& b);
bool same_row(const RadiusRow& a, const RadiusRow& b);

// ------------------------------------------------------------- workloads

// Each workload emits the end-to-end metrics with tracing off. With
// --trace 1 it instead replays its stream twice, untraced then traced
// into `log`, and emits the trace.* and parallel.pool.* layer metrics.
void run_graph_build(const Args& args, Result& result, SpanLog* log);
void run_serve_read(const Args& args, Result& result, SpanLog* log);
void run_serve_churn(const Args& args, Result& result, SpanLog* log);

// The layer suite of a traced run (README.md, "Per-layer metrics"):
// engine and separator probes on the graph_build input, the ladder and
// index/kd-tree/broker/router probes on the serve_read stream, delta and
// io probes on the serve_churn input.
void run_engine_layers(const Args& args, Result& result, SpanLog* log);
void run_serve_layers(const Args& args, Result& result, SpanLog* log);

}  // namespace perfbench
