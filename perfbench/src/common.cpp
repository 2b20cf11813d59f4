#include "common.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numbers>
#include <stdexcept>
#include <string_view>

#include "geometry/point.hpp"

namespace perfbench {

namespace {

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0')
    throw std::invalid_argument(std::string("bad value for ") + flag);
  return v;
}

double parse_double(const std::string& s, const char* flag) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v))
    throw std::invalid_argument(std::string("bad value for ") + flag);
  return v;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + std::string(flag));
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value(), "--seed");
    } else if (flag == "--seconds") {
      a.seconds = parse_double(value(), "--seconds");
    } else if (flag == "--trace") {
      a.trace = parse_u64(value(), "--trace") != 0;
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--inject-fault") {
      a.inject_fault = true;
    } else if (flag == "--input") {
      a.input = static_cast<std::uint32_t>(parse_u64(value(), "--input"));
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.workload != "graph_build" && a.workload != "serve_read" &&
      a.workload != "serve_churn")
    throw std::invalid_argument("unknown workload " + a.workload);
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ------------------------------------------------------------- Samples

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(v_.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::mean() const {
  if (v_.empty()) return 0.0;
  double s = 0.0;
  for (double x : v_) s += x;
  return s / static_cast<double>(v_.size());
}

double quiet_median(std::vector<std::pair<double, double>> steal_value) {
  if (steal_value.empty()) return 0.0;
  // Ordered by steal share alone: among equal shares (a quiet host reads
  // 0 for many samples) the values must not decide which are kept.
  std::stable_sort(steal_value.begin(), steal_value.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t keep = std::max<std::size_t>(1, steal_value.size() / 4);
  const double limit = steal_value[keep - 1].first;
  Samples quiet;
  for (const auto& [steal, value] : steal_value)
    if (steal <= limit) quiet.add(value);
  return quiet.median();
}

StealSampler::StealSampler(Clock::time_point start) : start_(start) {
  samples_.reserve(4096);
  samples_.emplace_back(micros_between(start_, Clock::now()) / 1e6,
                        cpu_ticks());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      samples_.emplace_back(micros_between(start_, Clock::now()) / 1e6,
                            cpu_ticks());
    }
  });
}

void StealSampler::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

double StealSampler::share(double t0_s, double t1_s) const {
  auto nearest = [&](double t) {
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const auto& s, double v) { return s.first < v; });
    if (it == samples_.end()) return samples_.back().second;
    if (it != samples_.begin() && t - std::prev(it)->first < it->first - t)
      --it;
    return it->second;
  };
  return steal_share(nearest(t0_s), nearest(t1_s));
}

void Slices::add_window(const std::vector<Completion>& done, double seconds,
                        const StealSampler* steal) {
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double slice_s = seconds / static_cast<double>(n);
  std::vector<double> answers(n, 0.0);
  std::vector<Samples> lat(n);
  for (const Completion& c : done) {
    const std::size_t i =
        std::min(n - 1, static_cast<std::size_t>(std::max(c.t_s, 0.0) / slice_s));
    answers[i] += c.answers;
    lat[i].add(c.us);
  }
  const std::size_t before = p50_us.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (lat[i].size() < 1000) continue;
    answers_per_s.add(answers[i] / slice_s);
    p50_us.add(lat[i].median());
    p99_us.add(lat[i].quantile(0.99));
    if (steal)
      steal_p50_us.emplace_back(
          steal->share(static_cast<double>(i) * slice_s,
                       static_cast<double>(i + 1) * slice_s),
          lat[i].median());
  }
  if (p50_us.size() > before || done.empty()) return;
  // Too few requests for any slice (tiny runs): the window is one slice.
  Samples all;
  double total = 0.0;
  for (const Completion& c : done) {
    all.add(c.us);
    total += c.answers;
  }
  answers_per_s.add(total / seconds);
  p50_us.add(all.median());
  p99_us.add(all.quantile(0.99));
  if (steal) steal_p50_us.emplace_back(steal->share(0.0, seconds), all.median());
}

// -------------------------------------------------------------- Result

void Result::detail(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  std::lock_guard<std::mutex> lock(mu_);
  details.emplace_back(name, buf);
}

void Result::fail(const std::string& what, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  correct = false;
  failed += count;
  if (violations.size() < 16) violations.push_back(what);
}

// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
// of the process image this one was exec'd from (here, run.py's Python).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back so the reset starts from live data
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  stat >> cpu;
  for (int i = 0; i < 8 && stat; ++i) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

// ------------------------------------------------------------- SpanLog

SpanLog::Buffer& SpanLog::buffer() {
  auto owned = std::make_unique<Buffer>();
  owned->spans.reserve(1 << 14);
  std::lock_guard<std::mutex> lock(mu_);
  owned->tid = static_cast<int>(buffers_.size()) + 1;
  buffers_.push_back(std::move(owned));
  return *buffers_.back();
}

std::size_t SpanLog::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

double SpanLog::median_self_us(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples self;
  for (const auto& b : buffers_) {
    const auto& spans = b->spans;
    // Children follow their parent in the buffer (a child opens after its
    // parent); sibling intervals on one thread never overlap, so the
    // covered time is the plain sum of direct children.
    std::vector<std::uint64_t> covered(spans.size(), 0);
    for (const auto& s : spans)
      if (s.parent >= 0 && s.end_ns >= s.start_ns)
        covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.parent >= 0 || std::strcmp(s.name, name) != 0) continue;
      if (s.end_ns < s.start_ns) continue;
      std::uint64_t dur = s.end_ns - s.start_ns;
      std::uint64_t own = dur > covered[i] ? dur - covered[i] : 0;
      self.add(static_cast<double>(own) / 1e3);
    }
  }
  return self.median();
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  for (const auto& b : buffers_) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const auto& s = b->spans[i];
      if (s.end_ns < s.start_ns) continue;
      std::snprintf(buf, sizeof buf,
                    "%s  {\"name\": \"%s\", \"cat\": \"perfbench\", "
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"request\": %llu, "
                    "\"span\": %zu, \"parent\": %d}}",
                    first ? "" : ",\n", s.name, b->tid,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.request), i,
                    static_cast<int>(s.parent));
      os << buf;
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

void record_replay_layers(Result& r, const SpanLog& log, double untraced_p50,
                          double traced_p50,
                          const sepdc::par::ThreadPoolStats& before,
                          const sepdc::par::ThreadPoolStats& after) {
  r.detail("untraced.request_p50_us", untraced_p50);
  r.detail("traced.request_p50_us", traced_p50);
  r.metric("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0,
           "%");
  r.metric("trace.request_self_us", log.median_self_us("request"), "us");
  const double busy_s =
      static_cast<double>(after.busy_ns - before.busy_ns) / 1e9;
  const double life_s =
      static_cast<double>(after.lifetime_ns - before.lifetime_ns) / 1e9;
  r.metric("parallel.pool.utilization",
           busy_s / (static_cast<double>(after.concurrency) * life_s),
           "ratio");
  r.metric("parallel.pool.busy_s", busy_s, "s");
  r.metric("parallel.pool.task_wait_p99_us",
           after.task_wait.delta_since(before.task_wait).p99_us(), "us");
}

// -------------------------------------------------------------- inputs

Sizes sizes_for(const Args& args) {
  if (args.tiny) return Sizes{20000, 20000, 20000, 200, 0.3, 300};
  return Sizes{300000, 200000, 200000, 2000, 1.5, 2000};
}

double radius_for_hits(std::size_t n, double hits) {
  return std::sqrt(hits / (std::numbers::pi * static_cast<double>(n)));
}

namespace {
// Distinct streams per workload from one --seed.
sepdc::Rng input_rng(const Args& args, std::uint64_t tag) {
  return sepdc::Rng(args.seed * 0x9e3779b97f4a7c15ULL + tag);
}
}  // namespace

std::vector<sepdc::geo::Point<3>> graph_build_points(const Args& args,
                                                    std::uint32_t input) {
  sepdc::Rng rng = input_rng(args, 1 + 16 * input);
  return uniform_points<3>(sizes_for(args).graph_n, rng);
}

std::vector<sepdc::geo::Point<2>> serve_read_points(const Args& args,
                                                   std::uint32_t input) {
  sepdc::Rng rng = input_rng(args, 2 + 16 * input);
  return uniform_points<2>(sizes_for(args).read_n, rng);
}

sepdc::geo::Point<2> churn_point(const ChurnData& data, std::uint32_t c,
                                 sepdc::Rng& rng) {
  sepdc::geo::Point<2> p;
  for (int i = 0; i < 2; ++i)
    p[i] = data.centers[c][i] + rng.normal(0.0, data.stddev);
  return p;
}

ChurnData serve_churn_data(const Args& args, std::uint32_t input) {
  constexpr std::uint32_t kClusters = 16;
  sepdc::Rng rng = input_rng(args, 3 + 16 * input);
  ChurnData d;
  d.stddev = 0.03;
  d.centers = uniform_points<2>(kClusters, rng);
  d.hot = static_cast<std::uint32_t>(rng.below(kClusters));
  const std::size_t n = sizes_for(args).churn_n;
  d.points.resize(n);
  d.cluster.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.cluster[i] = static_cast<std::uint32_t>(rng.below(kClusters));
    d.points[i] = churn_point(d, d.cluster[i], rng);
  }
  return d;
}

// ------------------------------------------------------------- oracles

template <int D>
KnnRow brute_knn(const std::vector<sepdc::geo::Point<D>>& points,
                 const std::vector<std::uint32_t>& ids,
                 const sepdc::geo::Point<D>& q, std::size_t k) {
  KnnRow all(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    all[i] = {sepdc::geo::distance2(q, points[i]),
              ids.empty() ? static_cast<std::uint32_t>(i) : ids[i]};
  auto by_dist_id = [](const auto& a, const auto& b) {
    return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.index < b.index;
  };
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end(), by_dist_id);
  all.resize(take);
  return all;
}

template <int D>
RadiusRow brute_radius(const std::vector<sepdc::geo::Point<D>>& points,
                       const std::vector<std::uint32_t>& ids,
                       const sepdc::geo::Point<D>& q, double r) {
  RadiusRow row;
  const double r2 = r * r;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double d2 = sepdc::geo::distance2(q, points[i]);
    if (d2 <= r2)
      row.emplace_back(ids.empty() ? static_cast<std::uint32_t>(i) : ids[i],
                       d2);
  }
  std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  return row;
}

template KnnRow brute_knn<2>(const std::vector<sepdc::geo::Point<2>>&,
                             const std::vector<std::uint32_t>&,
                             const sepdc::geo::Point<2>&, std::size_t);
template KnnRow brute_knn<3>(const std::vector<sepdc::geo::Point<3>>&,
                             const std::vector<std::uint32_t>&,
                             const sepdc::geo::Point<3>&, std::size_t);
template RadiusRow brute_radius<2>(const std::vector<sepdc::geo::Point<2>>&,
                                   const std::vector<std::uint32_t>&,
                                   const sepdc::geo::Point<2>&, double);

// Bitwise on distances: the kernels promise the exact geo::distance2
// value, so any difference is a defect, not rounding.
bool same_row(const KnnRow& a, const KnnRow& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].index != b[i].index ||
        std::memcmp(&a[i].dist2, &b[i].dist2, sizeof(double)) != 0)
      return false;
  return true;
}

bool same_row(const RadiusRow& a, const RadiusRow& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  return true;
}

}  // namespace perfbench
