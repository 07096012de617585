// Benchmark driver: runs one workload for one seed and prints one JSON line
// with every end-to-end metric, every per-layer metric, the deterministic
// section the seed self-check compares, and the correctness tally.
//
//   perfbench --workload router64|gateway_zipf|pod_churn --seed N
//             --seconds S [--trace 0|1] [--trace-out FILE]
//
// perfbench/run.py builds this binary and is the entry point; see
// perfbench/README.md for the metrics and the workloads.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "workloads.h"

namespace {

using linuxfp::util::Json;
using perfbench::Metric;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload router64|gateway_zipf|pod_churn"
               " --seed N --seconds S [--trace 0|1] [--trace-out FILE]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& arg, const std::string& val) {
  std::size_t used = 0;
  T v{};
  try {
    if constexpr (std::is_floating_point_v<T>) {
      v = std::stod(val, &used);
    } else {
      v = std::stoull(val, &used);
    }
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != val.size()) usage("bad value for " + arg + ": " + val);
  return v;
}

Json metrics_json(const std::map<std::string, Metric>& m) {
  Json out = Json::object();
  for (const auto& [name, metric] : m) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      std::exit(1);
    }
    Json j = Json::object();
    j["value"] = metric.value;
    j["unit"] = metric.unit;
    out[name] = std::move(j);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = parse_number<std::uint64_t>(arg, val);
    } else if (arg == "--seconds") {
      opt.seconds = parse_number<double>(arg, val);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!(opt.seconds > 0 && opt.seconds < 3600)) {
    usage("--seconds must be in (0, 3600)");
  }

  perfbench::Tracer tracer;
  tracer.set_enabled(opt.trace);
  perfbench::Report rep;
  if (opt.workload == "router64" || opt.workload == "gateway_zipf") {
    rep = perfbench::run_traffic(opt, tracer);
  } else if (opt.workload == "pod_churn") {
    rep = perfbench::run_pod_churn(opt, tracer);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }

  Json spans = tracer.to_json();
  if (opt.trace && !trace_out.empty()) {
    std::ofstream f(trace_out);
    f << spans.dump() << "\n";
    if (!f) {
      std::cerr << "perfbench: cannot write " << trace_out << "\n";
      return 1;
    }
  }

  Json out = Json::object();
  out["workload"] = opt.workload;
  out["seed"] = opt.seed;
  out["trace"] = opt.trace;
  out["attempted"] = rep.attempted;
  out["failed"] = rep.failed;
  Json failures = Json::array();
  for (const std::string& f : rep.failures) failures.push_back(f);
  out["failures"] = std::move(failures);
  out["end_to_end"] = metrics_json(rep.end_to_end);
  out["per_layer"] = metrics_json(rep.per_layer);
  Json det = Json::object();
  for (const auto& [k, v] : rep.deterministic) det[k] = v;
  out["deterministic"] = std::move(det);
  out["span_summary"] = spans.at("summary");
  out["notes"] = rep.notes;
  std::cout << out.dump() << std::endl;
  return 0;
}
