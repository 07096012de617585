// Measurement probes owned by the benchmark driver: an allocation counter
// (the driver's own global operator new/delete) and an in-memory span
// recorder with parent links and per-name self time.
//
// Both are only ever switched on from the driver thread while no engine
// thread is running, except the allocation totals, which are atomics so a
// stray allocation from another thread is still counted, never torn.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

// Counting is off by default; the hook then costs one relaxed load.
void set_alloc_counting(bool on);
AllocTotals alloc_totals();

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span recorder. Spans nest on one thread (the driver's); a span's self time
// is its duration minus the time its direct children cover. Aggregates are
// kept for every span; raw records (name, start, end, parent, operation id)
// are kept up to a capacity and written out at exit.
class Tracer {
 public:
  void set_enabled(bool on) {
    enabled_ = on;
    if (on) raw_.reserve(kRawCapacity);
  }
  bool enabled() const { return enabled_; }

  // `name` must be a string literal (names are interned by address).
  void begin(const char* name, std::uint64_t op_id);
  void end();

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op_id)
        : tracer_(t.enabled() ? &t : nullptr) {
      if (tracer_) tracer_->begin(name, op_id);
    }
    ~Scope() {
      if (tracer_) tracer_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  struct Stat {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  const std::vector<Stat>& stats() const { return stats_; }
  // Mean duration in ns of the named span, 0 when never recorded.
  double mean_ns(const std::string& name) const;

  // {"spans": [{name, start_ns, end_ns, parent, op}], "dropped": n,
  //  "summary": [{name, count, total_ns, self_ns}]}
  linuxfp::util::Json to_json() const;

 private:
  struct Open {
    std::size_t stat = 0;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
    std::int64_t raw = -1;
    std::uint64_t op = 0;
  };
  struct Raw {
    std::size_t stat = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
  };
  std::size_t intern(const char* name);

  static constexpr std::size_t kRawCapacity = 1u << 16;

  bool enabled_ = false;
  std::uint64_t raw_dropped_ = 0;
  std::vector<const char*> names_;  // parallel to stats_
  std::vector<Stat> stats_;
  std::vector<Open> open_;
  std::vector<Raw> raw_;
};

}  // namespace perfbench
