// Adaptive flow steering (DESIGN.md §15): the software half of the Linux
// scaling toolbox (Documentation/networking/scaling.rst) layered over the
// NIC-style RSS classifier.
//
//   * RETA rebalancer — RPS-style re-weighting: instead of only rewriting
//     the 128-entry indirection table when the watchdog excludes a queue,
//     a periodic pass re-assigns RETA buckets to queues from the measured
//     per-bucket packet counts (greedy longest-processing-time packing), so
//     skewed bucket popularity stops collapsing onto one worker. The pass
//     weighs only what the producer steered, never live ring occupancy, so
//     its decisions are a pure function of the packet stream.
//   * RFS flow affinity — a small steering table keyed by rss_hash pins each
//     flow to the queue (CPU) that first processed it, which is exactly the
//     CPU that owns its microflow-cache entry and per-CPU map slots. A RETA
//     rewrite therefore never silently migrates an established flow away
//     from its warm state; only an explicit migration (below) moves it.
//   * Elephant detection — a space-saving top-k sketch over rss_hash finds
//     heavy hitters. A flow too big for any single queue (share above the
//     spray threshold) is *split*: its packets round-robin over the alive
//     queues. Smaller elephants pinned to the hottest queue are *migrated*:
//     their RFS entry is retargeted at the least-loaded queue.
//
// Correctness: steering decides only WHERE a packet is processed. Verdicts
// are queue-partition invariant (per-CPU VMs share maps' aggregate
// semantics; the N-vs-1 equivalence suite proves it), and the microflow
// cache is per-CPU exact-match with generation-vector validation, so a
// migrated or sprayed flow simply re-records on its new CPU — a one-miss
// warmup, never a stale verdict. No flow-epoch bump is required for a
// handoff; the epoch continues to guard program redeploys only.
//
// Threading: the steerer is owned by the engine's single producer thread
// (inject side). All of its state — RFS table, sketch, interval loads — is
// plain memory touched by that thread alone. The only shared structure it
// writes is the RETA itself, whose entries are relaxed atomics also written
// by the slow-path thread's watchdog (exclude/include); entry-granular
// last-writer-wins is safe because a momentarily stale entry only steers a
// packet to a suboptimal (still valid) queue.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "engine/rss.h"

namespace linuxfp::engine {

struct SteeringConfig {
  bool rebalance = false;  // periodic load-driven RETA re-weighting
  bool rfs = false;        // flow->queue affinity table (cache-preserving)
  bool elephants = false;  // top-k detector + hot-flow spray/migration
  // Packets between adaptation passes (the "jiffies" of the rebalancer).
  unsigned interval = 4096;
  // Affinity table size; power of two. Collisions overwrite (it is a cache
  // of steering decisions, not ground truth).
  std::size_t rfs_entries = 4096;
  // Space-saving sketch width: how many heavy hitters are tracked exactly.
  unsigned topk = 16;
  // max-queue-load / mean-queue-load ratio above which a pass rewrites the
  // RETA and migrates flows. Below it the pass only decays its counters.
  double imbalance_threshold = 1.15;
  // A flow whose traffic share exceeds this is sprayed over all queues
  // (one queue could never serve it without becoming the bottleneck).
  // 0 = auto: half the fair per-queue share, 0.5 / alive_queues.
  double spray_share = 0.0;

  bool any() const { return rebalance || rfs || elephants; }

  // Everything on: the configuration the Zipf-recovery bench and the
  // adaptive-steering scenario options use.
  static SteeringConfig adaptive() {
    SteeringConfig cfg;
    cfg.rebalance = cfg.rfs = cfg.elephants = true;
    return cfg;
  }
};

// Producer-thread-written; read after the engine quiesces (reconcile) or
// from the producer thread itself (tests).
struct SteeringStats {
  std::uint64_t decisions = 0;       // pick_queue calls
  std::uint64_t adapt_passes = 0;    // periodic passes that ran
  std::uint64_t rebalances = 0;      // passes that changed steering state
  std::uint64_t reta_rewrites = 0;   // RETA entries rewritten by the balancer
  std::uint64_t rfs_hits = 0;        // packets steered by flow affinity
  std::uint64_t rfs_inserts = 0;     // new flow pins
  std::uint64_t rfs_migrations = 0;  // pins retargeted off a hot queue
  std::uint64_t sprayed = 0;         // packets split across queues
  std::uint64_t spray_flows = 0;     // flows promoted to spray
  std::uint64_t unspray_flows = 0;   // flows demoted back to affinity

  bool operator==(const SteeringStats&) const = default;
};

// Bounded heavy-hitter sketch (Metwally's space-saving): at most k tracked
// hashes; an untracked arrival evicts the minimum-count item and inherits
// its count as the new item's error bound. Counts overestimate by at most
// `err`, which is exactly the conservative direction for elephant
// detection.
class SpaceSaving {
 public:
  struct Item {
    std::uint32_t hash = 0;
    std::uint64_t count = 0;
    std::uint64_t err = 0;
  };

  explicit SpaceSaving(unsigned k) : k_(k == 0 ? 1 : k) { items_.reserve(k_); }

  void add(std::uint32_t hash);
  // Exponential decay between adaptation intervals so the sketch tracks the
  // current traffic mix, not all of history.
  void halve();
  bool tracked(std::uint32_t hash) const;
  const std::vector<Item>& items() const { return items_; }

 private:
  unsigned k_;
  std::vector<Item> items_;
};

// The per-engine steering brain. One instance, owned by the producer.
class FlowSteerer {
 public:
  static constexpr unsigned kNoQueue = ~0u;

  FlowSteerer(RssClassifier& rss, SteeringConfig cfg);

  // The full steering decision for one packet: spray set, then RFS
  // affinity, then RETA; runs the periodic adaptation pass in-line every
  // cfg.interval packets.
  unsigned pick_queue(std::uint32_t hash);

  // Forces an adaptation pass now (tests; normally periodic).
  void adapt();

  const SteeringStats& stats() const { return stats_; }
  const SteeringConfig& config() const { return cfg_; }

  // Introspection for tests / status.
  bool sprayed(std::uint32_t hash) const;
  // Current affinity pin for the flow, or kNoQueue when none.
  unsigned rfs_queue(std::uint32_t hash) const;

 private:
  struct RfsEntry {
    std::uint32_t hash = 0;
    unsigned queue = kNoQueue;  // kNoQueue = empty slot
  };

  unsigned spray_next();
  double spray_threshold(unsigned alive) const;

  RssClassifier& rss_;
  SteeringConfig cfg_;

  std::vector<RfsEntry> rfs_;
  std::size_t rfs_mask_ = 0;
  std::vector<std::uint32_t> spray_;  // hashes currently split over queues
  unsigned spray_rr_ = 0;

  SpaceSaving topk_;
  // Decayed denominator for top-k share estimates (matches topk_.halve()).
  double topk_window_ = 0;

  // Interval accumulators, reset every adapt() pass.
  std::vector<std::uint64_t> queue_load_;
  std::array<std::uint64_t, kRetaSize> bucket_load_{};
  std::uint64_t interval_count_ = 0;

  SteeringStats stats_;
};

}  // namespace linuxfp::engine
