// sepdc_perfbench: runs one benchmark workload and prints one JSON record
// as its last line of standard output (README.md describes the record).
// perfbench/run.py builds this binary, calls it and reduces the record to
// the result line.
//
//   sepdc_perfbench --workload graph_build|serve_read|serve_churn
//                   --seed N --seconds S --trace 0|1
//                   [--input I] [--tiny] [--inject-fault] [--work-dir DIR]
//
// Exit status: 0 when every correctness gate passed, 1 when one failed
// (the record is still printed), 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "knn/kernels.hpp"

namespace {

using namespace perfbench;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_record(const Args& args, const Result& r, double wall_s) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}, \"details\": {";
  for (std::size_t i = 0; i < r.details.size(); ++i)
    out += (i ? ", " : "") + json_string(r.details[i].first) + ": " +
           r.details[i].second;
  out += "}, \"violations\": [";
  for (std::size_t i = 0; i < r.violations.size(); ++i)
    out += (i ? ", " : "") + json_string(r.violations[i]);
  out += "], \"meta\": {";
  out += "\"workload\": " + json_string(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"input\": " + std::to_string(args.input);
  out += ", \"seconds\": " + json_number(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += ", \"tiny\": " + std::string(args.tiny ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"isa\": " + json_string(sepdc::knn::kernels::isa_name(
                             sepdc::knn::kernels::active_isa()));
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  out += ", \"wall_s\": " + json_number(wall_s);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sepdc_perfbench: %s\n", e.what());
    return 2;
  }
  const auto t0 = Clock::now();
  std::filesystem::create_directories(args.work_dir);
  Result result;
  try {
    SpanLog log;
    SpanLog* tlog = args.trace ? &log : nullptr;
    if (args.workload == "graph_build") run_graph_build(args, result, tlog);
    else if (args.workload == "serve_read") run_serve_read(args, result, tlog);
    else run_serve_churn(args, result, tlog);
    if (args.trace) {
      run_engine_layers(args, result, &log);
      run_serve_layers(args, result, &log);
      result.metric("trace.spans", static_cast<double>(log.span_count()),
                    "count");
      const auto path = std::filesystem::path(args.work_dir) /
                        ("trace_" + args.workload + ".json");
      if (!log.write_chrome_trace(path.string()))
        std::fprintf(stderr, "sepdc_perfbench: cannot write %s\n",
                     path.c_str());
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  print_record(args, result, seconds_since(t0));
  return result.correct ? 0 : 1;
}
