// Datapath observability layer: a process-wide-free, registry-based metric
// store plus a pwru-style per-packet trace ring.
//
// The paper motivates LinuxFP with a per-stage hotspot profile of the kernel
// datapath (Fig 1) and evaluates coherence and reaction time — both need the
// simulated datapath to be observable. Four pieces live here:
//
//  * MetricsRegistry — named monotonic counters (always on, ~one increment
//    per event) and opt-in latency Histograms (OnlineStats + SampleSet).
//    Counter storage is deque-backed so &counter is stable forever.
//  * CounterShard / ShardSet — one writer thread's part of a counter.
//    Packet-path emission sites (each per-CPU VM, attachment slot and flow
//    cache through a ShardSet; the kernel's own slow-path writer through
//    the registry's owner shards) resolve a name once and add through the
//    cached shard: a relaxed load plus a relaxed store, no lock-prefixed
//    read-modify-write and no cache line shared between writers. Readers
//    sum the base counter and every shard of a name.
//  * StageSink — a fixed-size open-addressing cache keyed on the *address*
//    of a stage-name string literal, so CycleTrace::charge() costs two
//    pointer-indexed shard adds instead of a string lookup.
//  * PacketTrace / TraceRing — when tracing is enabled on a testbed, each
//    packet records the ordered (layer, stage, cycles) events it hit in the
//    slow path and in the eBPF VM, dumpable as JSON (tools/linuxfptrace).
//
// Counter naming scheme (see DESIGN.md):
//   slowpath.<stage>.calls / .cycles      one pair per CycleTrace stage
//   drop.<reason>                         per-reason drop counts
//   fib.lookups / fib.depth_total         FIB activity (depth via FibResult)
//   fastpath.<attachment>.<hook>.*        per-attachment verdicts/cycles
//   ebpf.helper.<name>.calls              per-helper-call counts
//   ebpf.map.{hits,misses}                map lookup outcomes
//   fpm.<name>.deployed                   per-FPM deploy counts
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/stats.h"

namespace linuxfp::util {

// Base counter storage: the any-thread atomic every name has. bump() is a
// relaxed fetch_add (a lock-prefixed read-modify-write), so it is for cold
// sites only — engine reconcile at stop(), the deployer, tests. Packet-path
// increments go through a CounterShard instead.
using Counter = std::atomic<std::uint64_t>;

// Relaxed atomic increment, safe from any thread. Cold sites only.
inline void bump(Counter* c, std::uint64_t n = 1) {
  c->fetch_add(n, std::memory_order_relaxed);
}

inline std::uint64_t counter_value(const Counter* c) {
  return c->load(std::memory_order_relaxed);
}

// One writer thread's part of a named counter. add() is a relaxed load plus
// a relaxed store: no lock prefix, exact because only the owning writer ever
// stores, and still an atomic so concurrent readers (which sum the shards)
// stay race-free under TSan.
class CounterShard {
 public:
  void add(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> v_{0};
};

struct CounterEntry;

// A shard handed out by a ShardSet, linked into its name's list of live
// shards so readers can find it.
struct ShardCell {
  CounterShard shard;
  ShardCell* next = nullptr;      // next live shard of the same name
  CounterEntry* entry = nullptr;  // the name it belongs to
};

// Registry storage of one counter name: the any-thread base counter, the
// registry owner's shard and the live shards of every other writer.
struct CounterEntry {
  Counter base{0};
  CounterShard owner;
  ShardCell* shards = nullptr;
};

class MetricsRegistry;

// The shards of one writer thread other than the registry owner's (a
// per-CPU VM, an attachment's per-CPU slot, a per-CPU flow cache). Shards
// are packed into cache lines the set owns, so two writers never share a
// line. bind() and shard() are control-plane calls; the shards themselves
// are written only by the owning thread. Rebinding or destroying the set
// folds every shard's value into its base counter and frees the lines, so
// totals stay monotonic across owner teardown and memory stays bounded
// under churn. A registry destroyed first detaches its sets, so either may
// outlive the other.
class ShardSet {
 public:
  ShardSet() = default;
  ~ShardSet() { bind(nullptr); }
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  // Releases the current binding, then binds to `registry` (null unbinds).
  // Shard pointers obtained before the call are invalid after it.
  void bind(MetricsRegistry* registry);
  MetricsRegistry* registry() const { return registry_; }
  // Whether emission is on: bound to a registry that is enabled.
  bool on() const;

  // This writer's shard of `name`, find-or-create (creates the name's base
  // counter too, so it shows in the registry at 0). Requires a binding.
  CounterShard* shard(const std::string& name);
  std::size_t size() const { return used_; }

 private:
  friend class MetricsRegistry;
  static constexpr std::size_t kPerChunk = 8;  // 8 x 24 B = three lines
  struct alignas(64) Chunk {
    ShardCell cells[kPerChunk];
  };
  ShardCell& cell(std::size_t i) {
    return chunks_[i / kPerChunk]->cells[i % kPerChunk];
  }

  MetricsRegistry* registry_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t used_ = 0;
};

// Opt-in latency histogram: Welford summary plus retained samples for exact
// percentiles. record() is a no-op until the owning registry enables
// histograms, so always-on call sites stay cheap.
class Histogram {
 public:
  explicit Histogram(const bool* enabled) : enabled_(enabled) {}

  void record(double v) {
    if (!*enabled_) return;
    stats_.add(v);
    if (samples_.count() < kMaxSamples) samples_.add(v);
  }

  const OnlineStats& stats() const { return stats_; }
  const SampleSet& samples() const { return samples_; }
  std::size_t count() const { return stats_.count(); }

  Json to_json() const;

 private:
  static constexpr std::size_t kMaxSamples = 1 << 16;
  const bool* enabled_;
  OnlineStats stats_;
  SampleSet samples_;
};

// Named metric store. Threading contract: counter *creation* (counter(),
// owner_shard(), histogram(), ShardSet::bind/shard, every set_metrics call)
// is control-plane work and must be single-threaded. Every shard has
// exactly one writer thread: a ShardSet's shards their set's owner, and
// each name's owner shard the registry owner's writer (for a kernel's
// registry, whichever thread runs that kernel's slow path). bump() on a
// base Counter is safe from any thread. Readers (value, to_json,
// prometheus_text) sum the base and every shard of a name with relaxed
// loads, so they may run while writers add; reset() must not. The engine
// pre-binds every shard before spawning its worker pool, and merges
// per-worker stats here at stop() — exactly the per-CPU-map aggregation
// discipline.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create the base counter. The returned pointer is stable for the
  // registry's lifetime.
  Counter* counter(const std::string& name);
  // Find-or-create the registry owner's shard of `name` (stable pointer).
  // Only the registry owner's writer thread may add to it.
  CounterShard* owner_shard(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Value of a counter (base plus live shards), 0 if it was never created.
  std::uint64_t value(const std::string& name) const;
  bool has_counter(const std::string& name) const {
    return counters_.count(name) > 0;
  }

  void set_histograms_enabled(bool on) { histograms_enabled_ = on; }
  bool histograms_enabled() const { return histograms_enabled_; }

  // When false, StageSink/Vm/Attachment emission sites skip their updates.
  // Counters themselves keep their values (no reset).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Zeroes every counter and live shard and drops every histogram's
  // samples. Cached counter and shard pointers stay valid.
  void reset();

  std::size_t counter_count() const { return counters_.size(); }
  // ShardSet shards currently bound across all writers (released ones are
  // folded and no longer counted; owner shards are not counted).
  std::size_t live_shards() const;

  // {"counters": {name: value, ...}, "histograms": {name: {...}, ...}}
  // Names are sorted so output is deterministic.
  Json to_json() const;

  // Prometheus-style text exposition: one "<prefix>_<name> <value>" line per
  // counter ('.' and '-' become '_'), plus _count/_sum/quantile lines per
  // histogram.
  std::string prometheus_text(const std::string& prefix = "linuxfp") const;

 private:
  friend class ShardSet;
  CounterEntry* entry(const std::string& name);
  static std::uint64_t total(const CounterEntry& e);
  void release(ShardSet& set);

  bool enabled_ = true;
  bool histograms_enabled_ = false;
  std::deque<CounterEntry> entries_;           // stable addresses
  std::map<std::string, CounterEntry*> counters_;
  std::deque<Histogram> histogram_values_;     // stable addresses
  std::map<std::string, Histogram*> histograms_;
  std::vector<ShardSet*> sets_;                // bound sets, for teardown
};

inline bool ShardSet::on() const {
  return registry_ != nullptr && registry_->enabled();
}

// Per-stage counter cache for the cycle-charge hot path. Stage names are
// string literals, so identity-hashing the pointer is both correct per
// charge site and far cheaper than hashing the string. Distinct literals
// with equal text simply resolve to the same registry counters. The sink
// adds to the registry's owner shards, so only the registry owner's writer
// (the kernel's slow path) may charge it.
class StageSink {
 public:
  // Counters are created as "<prefix><stage>.calls|cycles" (+ a
  // "<prefix><stage>.cycles_hist" histogram, recorded only when the
  // registry has histograms enabled).
  void bind(MetricsRegistry* registry, std::string prefix);
  void unbind() { registry_ = nullptr; }
  bool bound() const { return registry_ != nullptr; }

  void charge(const char* stage, std::uint64_t cycles) {
    if (!registry_ || !registry_->enabled()) return;
    Slot& slot = slot_for(stage);
    slot.calls->add();
    slot.cycles->add(cycles);
    slot.hist->record(static_cast<double>(cycles));
  }

 private:
  struct Slot {
    const char* stage = nullptr;
    CounterShard* calls = nullptr;
    CounterShard* cycles = nullptr;
    Histogram* hist = nullptr;
  };

  Slot& slot_for(const char* stage);
  Slot& overflow_slot_for(const char* stage);
  Slot make_slot(const char* stage);

  static constexpr std::size_t kSlots = 128;  // power of two; ~30 stages live
  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
  std::vector<Slot> slots_;
  std::map<const char*, Slot> overflow_;  // cold fallback if the table fills
};

// One event in a packet's journey. layer/stage point at string literals;
// detail is only populated for verdict-ish events (allocates, but tracing is
// opt-in).
struct TraceEvent {
  const char* layer;  // "slow" | "ebpf" | "verdict"
  const char* stage;  // stage, helper, or verdict name
  std::string detail;
  std::uint64_t cycles = 0;
};

// The ordered trace of a single packet through the datapath.
struct PacketTrace {
  std::uint64_t id = 0;
  int ifindex = 0;
  std::string device;
  bool fast_path = false;
  std::string verdict;
  std::uint64_t total_cycles = 0;
  std::vector<TraceEvent> events;

  void add(const char* layer, const char* stage, std::uint64_t cycles,
           std::string detail = {}) {
    events.push_back(TraceEvent{layer, stage, std::move(detail), cycles});
  }

  Json to_json() const;
};

// Fixed-capacity ring of recent packet traces (pwru-style). begin_packet()
// evicts the oldest record if full, so the returned pointer stays valid
// until the next begin_packet().
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 64) : capacity_(capacity) {}

  PacketTrace* begin_packet(int ifindex, std::string device);
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  const PacketTrace& at(std::size_t i) const { return ring_[i]; }
  const PacketTrace& latest() const { return ring_.back(); }
  std::uint64_t packets_traced() const { return next_id_; }
  void clear() { ring_.clear(); }

  Json to_json() const;

 private:
  std::size_t capacity_;
  std::uint64_t next_id_ = 0;
  std::deque<PacketTrace> ring_;
};

// The packet currently being traced by *this thread*, if any. Thread-local:
// the slow-path thread can trace its packets while engine workers (which
// never enable tracing) always observe null, so the eBPF VM can append
// events without widening every interface between the kernel and the
// loader. Null means tracing is off — emission sites must check.
PacketTrace* active_packet_trace();
void set_active_packet_trace(PacketTrace* trace);

}  // namespace linuxfp::util
