// The benchmark's three workloads and the report they fill in.
//
// Every workload has the same shape: set the scenario up, run a fixed,
// seeded amount of work whose modeled results must be a pure function of the
// seed, then keep measuring host speed until the time budget is spent, with
// further set-up bursts spread over it (setup_s comes from their medians).
// Every operation's fate is checked against what the configuration
// dictates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "util/json.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  // End-to-end metrics (untraced runs report these).
  std::map<std::string, Metric> end_to_end;
  // Per-layer metrics (traced runs report these).
  std::map<std::string, Metric> per_layer;
  // Modeled metrics and counts taken from the fixed, seeded part of the run:
  // the seed-determinism self-check compares these between two runs.
  std::map<std::string, double> deterministic;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  linuxfp::util::Json notes = linuxfp::util::Json::object();

  void fail(std::uint64_t n, const std::string& what) {
    failed += n;
    if (failures.size() < 20) failures.push_back(what);
  }
};

// Both return the run's report; `tracer` is enabled only for traced runs.
Report run_traffic(const Options& opt, Tracer& tracer);   // router64, gateway_zipf
Report run_pod_churn(const Options& opt, Tracer& tracer);

// Shared helpers.
double quantile(std::vector<double> v, double q);  // nearest rank, q in [0,1]
// Host-time estimator. The host running the driver alternates between
// episodes where the driver thread runs at full speed and episodes where it
// runs up to ~2x slower (other load on the machine), lasting from milliseconds
// to many seconds, and whole runs can sit in a slow stretch. Samples (in
// time order) are cut into chunks; each chunk keeps its p50 and p99, and the
// estimate is a low quantile (kHostQuantile) of those over the chunks: the
// program's speed when the host let it run. Rates take the matching high
// quantile. Every host metric rests on more than 50 chunks per run, so the
// estimate is never the single best chunk, and all chunks of a metric are
// alike, so it never picks a kind of chunk that is cheaper than the rest.
// A low quantile rather than the median, because fast stretches can be
// rare: the median then reports how the fast and slow stretches fell
// during the run. Only per-chunk quantiles are kept, so long runs stay
// small in memory.
constexpr double kHostQuantile = 0.02;

class ChunkedSamples {
 public:
  // A chunk ends every `chunk` samples, or, with chunk == 0, only at
  // end_chunk().
  explicit ChunkedSamples(std::size_t chunk) : chunk_(chunk) {
    buf_.reserve(chunk);
  }
  void add(double v) {
    buf_.push_back(v);
    ++count_;
    if (buf_.size() == chunk_) fold();
  }
  void end_chunk() {
    if (!buf_.empty()) fold();
  }
  // Samples of an unfinished chunk count only when no chunk has ended.
  double p50() const { return estimate(p50_, 0.50); }
  double p99() const { return estimate(p99_, 0.99); }
  std::size_t count() const { return count_; }
  std::size_t chunks() const { return p50_.size(); }

 private:
  void fold();
  double estimate(const std::vector<double>& per_chunk, double q_in) const;

  std::size_t chunk_;
  std::size_t count_ = 0;
  std::vector<double> buf_, p50_, p99_;
};

// Spreads a fixed number of bursts evenly over the measuring window: burst
// k becomes due once k/bursts of the window has passed. Each burst fills one
// ChunkedSamples chunk, so a chunk is short in time while the chunks sample
// the whole run, and the count per run stays fixed however fast the host is.
class BurstSchedule {
 public:
  BurstSchedule(std::size_t bursts, std::uint64_t start_ns, std::uint64_t end_ns)
      : bursts_(bursts), start_(start_ns), end_(end_ns) {}
  // True while burst number `done` is due (and bursts remain).
  bool due(std::size_t done) const {
    if (done >= bursts_) return false;
    const double frac = static_cast<double>(now_ns() - start_) /
                        static_cast<double>(end_ - start_);
    return static_cast<double>(done) < frac * static_cast<double>(bursts_);
  }
  bool finished(std::size_t done) const { return done >= bursts_; }

 private:
  std::size_t bursts_;
  std::uint64_t start_, end_;
};

double peak_rss_mb();
std::uint64_t mix64(std::uint64_t x);  // splitmix64 finalizer

// Counter snapshot of a metrics registry ({"counters": {...}} flattened).
std::map<std::string, double> registry_counters(const linuxfp::util::Json& j);
// after - before, key-wise (keys missing in `before` count from 0).
std::map<std::string, double> diff(const std::map<std::string, double>& after,
                                   const std::map<std::string, double>& before);

// Sets every per-layer metric to 0 with its unit; workloads then overwrite
// the ones on their path, so each run reports the full set.
void declare_layer_metrics(Report& r);

// Fills the per-layer metrics every workload reports (zero where a layer
// is not on the workload's path) from a registry-counter delta normalized
// by `ops`.
void fill_layer_counters(Report& r, const std::map<std::string, double>& delta,
                         double ops);

}  // namespace perfbench
