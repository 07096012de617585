// Generic Receive Offload for the engine slow-path handoff (DESIGN.md §16).
//
// The slow-path thread pops raw segments from the MPSC ring one at a time;
// every segment pays the full linear stage walk (ip_rcv, fib_lookup, ...).
// GRO sits between the ring and rx_from_engine(): consecutive same-flow TCP
// segments are folded into one super-packet so the linear stages run once
// per burst, and dev_xmit resegments at TX (net::gso_segment) restoring the
// original wire bytes exactly. This mirrors the kernel's napi_gro_receive /
// GSO pairing — the observable packet stream is unchanged, only the cycles
// per wire packet drop.
//
// Coalescing rules (flush closes a held flow and emits its super-packet):
//   - fold only standard IPv4+TCP frames (ihl=5, data offset 5, not a
//     fragment, no SYN/FIN/RST, non-empty payload, no link padding); UDP
//     folding is opt-in (GroConfig::udp) for UDP-GRO style workloads.
//   - segments must be header-identical to the held super-packet except the
//     per-segment fields that resegmentation restores (IP total_len/id/
//     checksum; TCP seq/checksum or UDP length/checksum).
//   - TCP segments must arrive in-sequence; an out-of-order segment flushes
//     the held run and starts a new one (kernel GRO does the same).
//   - a held run flushes on: max_segs reached, flow-key or header mismatch,
//     out-of-order seq, table capacity, age (timeout_folds fold() calls) or
//     flush_all() when the engine stops. Every trigger counts packets, none
//     reads the host clock or an empty ring, so the super-packets a
//     single-queue run emits are a pure function of its packet stream.
//   - any non-coalescable packet that shares a 5-tuple with a held run
//     flushes that run *before* being emitted, so per-flow packet order is
//     preserved end to end.
//
// Single-threaded: only the engine's slow-path thread calls into this class.
#pragma once

#include <cstdint>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"

namespace linuxfp::engine {

struct GroConfig {
  bool enabled = false;
  // Max wire segments folded into one super-packet (skb gso_segs cap).
  unsigned max_segs = 16;
  // A held run older than this many fold() calls is flushed even if the ring
  // stays busy — bounds the latency a coalesced segment can incur.
  std::uint64_t timeout_folds = 256;
  // Also fold UDP datagrams (UDP GRO analogue). Off by default: plain UDP
  // has no in-order contract, so only packet-spraying workloads want it.
  bool udp = false;
};

struct GroStats {
  std::uint64_t folds = 0;         // packets offered to fold()
  std::uint64_t coalesced = 0;     // segments merged into a held run
  std::uint64_t superpackets = 0;  // multi-segment packets emitted
  std::uint64_t bypassed = 0;      // packets emitted untouched
  std::uint64_t flush_idle = 0;  // flush_all(): the engine's stop-time flush
  std::uint64_t flush_timeout = 0;
  std::uint64_t flush_mismatch = 0;  // header delta or same-flow bypasser
  std::uint64_t flush_ooo = 0;
  std::uint64_t flush_max_segs = 0;
  std::uint64_t flush_capacity = 0;
};

class GroEngine {
 public:
  explicit GroEngine(const GroConfig& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.enabled; }

  // Offers one segment. Appends zero or more packets to `out` (flushed
  // super-packets and/or the segment itself when it bypasses); a coalesced
  // segment is absorbed and appends nothing.
  void fold(net::Packet&& pkt, std::vector<net::Packet>& out);

  // Flushes every held run (engine shutdown). Counted in flush_idle.
  void flush_all(std::vector<net::Packet>& out);

  const GroStats& stats() const { return stats_; }
  std::size_t held() const { return held_.size(); }

 private:
  struct Entry {
    net::FlowKey key;
    net::Packet super;
    std::uint32_t next_seq = 0;  // TCP only
    std::uint64_t birth_fold = 0;
    bool tcp = true;
  };

  // What fold() learned about a segment. `coalescable` implies `has_key`.
  struct Classified {
    bool has_key = false;  // 5-tuple readable (order barrier applies)
    bool coalescable = false;
    net::FlowKey key;
    std::uint32_t seq = 0;
    std::uint16_t payload_off = 0;
    std::uint16_t payload_len = 0;
    bool tcp = true;
  };

  static constexpr std::size_t kMaxHeld = 8;  // per-NAPI GRO list size

  Classified classify(const net::Packet& pkt) const;
  // Emits held_[idx] (finalizing headers if multi-segment) and erases it.
  void flush_entry(std::size_t idx, std::vector<net::Packet>& out,
                   std::uint64_t& reason_counter);
  bool headers_match(const Entry& e, const net::Packet& pkt) const;

  GroConfig cfg_;
  GroStats stats_;
  std::vector<Entry> held_;
};

}  // namespace linuxfp::engine
