// ProtocolStack — the per-process RITAS context (the paper's `ritas_t`).
//
// Owns everything one process needs to run the stack: configuration,
// deterministic randomness, metrics, the instance registry used for
// demultiplexing, the out-of-context message table (§3.4), and the local
// delivery pump. Application-facing sessions create root protocol
// instances against a stack; the transport feeds inbound frames through
// `on_packet`.
//
// Threading: a stack is single-threaded by design (the paper's stack runs
// in one thread). All calls — on_packet, protocol API calls — must come
// from the same thread; the TCP facade funnels everything through its
// poll thread (ritas::Node), and the simulator is single-threaded anyway.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/adversary.h"
#include "crypto/keychain.h"
#include "core/message.h"
#include "core/metrics.h"
#include "core/protocol.h"
#include "core/transport.h"
#include "core/types.h"
#include "core/variants.h"

namespace ritas {

/// How many rounds ahead of the local round the round-based protocols (AB
/// agreement, Bracha and Crain BC) accept spawn-on-demand children;
/// further-ahead traffic goes out-of-context.
inline constexpr std::uint32_t kRoundWindow = 8;

/// Payload batching for the atomic broadcast: many application messages
/// ride one AB_MSG dissemination RB (length-prefixed framing, see
/// docs/PROTOCOLS.md "Batched AB_MSG framing"), amortizing the per-message
/// dissemination and agreement cost. The flag changes the AB_MSG wire
/// format, so all correct processes in a group must configure it
/// identically (like every other StackConfig protocol switch).
struct AbBatchConfig {
  /// Off by default: AB_MSG payloads are the raw application bytes,
  /// exactly the paper's wire format.
  bool enabled = false;
  /// Seal the open batch once it holds this many messages...
  std::uint32_t max_batch_msgs = 64;
  /// ...or once its framed payload reaches this many bytes.
  std::uint32_t max_batch_bytes = 16 * 1024;
};

struct StackConfig {
  std::uint32_t n = 4;
  ProcessId self = 0;

  /// Consensus group this stack runs. Several stacks (one per group) can
  /// share one transport mesh; every outbound frame is stamped with the
  /// group, inbound frames for other groups are counted drops
  /// (`foreign_group_dropped`), and a GroupMux routes shared-mesh traffic
  /// to the owning stack. Group 0 (the default) keeps the original
  /// single-group wire format bit-for-bit.
  GroupId group = 0;

  /// The coin Bracha's binary consensus tosses; Crain always tosses the
  /// dealt one (tossed_coin in core/variants.h). A dealt coin needs the
  /// keychain's group key: the ProtocolStack constructor throws
  /// std::invalid_argument without one.
  CoinMode coin_mode = CoinMode::kLocal;

  /// Which algorithm runs each swappable layer (core/variants.h). The
  /// default is the paper's Bracha pair, bit-identical to the pre-variant
  /// stack; like every wire-format switch, all correct processes of a
  /// group must select the same variants. Validated (with n) in the
  /// ProtocolStack constructor — invalid combinations throw
  /// std::invalid_argument at config time, never on the packet path.
  VariantConfig variants;

  /// Atomic broadcast payload batching (see AbBatchConfig).
  AbBatchConfig ab_batch;

  /// Out-of-context quota per *sender*: a Byzantine flooder can only evict
  /// its own buffered messages, never another process's (extension beyond
  /// the paper; see DESIGN.md §5.4).
  std::size_t ooc_per_sender = 2048;

  // --- ablation switches (benchmarks only; defaults = the paper's design) --
  /// Use reliable broadcast instead of echo broadcast for the MVC VECT
  /// phase — undoes the paper's §2.5 optimization to measure its value.
  bool mvc_vect_via_rb = false;
  /// Disable the binary consensus validation rule (§2.4) — shows what the
  /// "causing processes that do not follow the protocol to be ignored"
  /// mechanism buys under attack.
  bool bc_disable_validation = false;

  // --- test-only fault injection (never set in production paths) ----------
  /// Weakens the binary consensus decide rule: decide as soon as a step-1
  /// majority reaches the adopt threshold, skipping the step-2/3
  /// confirmation exchanges and their floor((n+f)/2)+1 decide quorum — the
  /// decide-on-prepare-instead-of-commit bug.
  /// A deliberately broken implementation that decides before agreement is
  /// locked in: under a split proposal vector, two processes whose first
  /// n-f step-1 values have opposite majorities decide opposite ways.
  /// Exists solely as a known-bug target for the schedule-exploration
  /// harness (src/sim/explore.h): the explorer's oracles must find an
  /// agreement violation under this flag (asserted in tests/test_explore.cpp).
  bool test_weak_bc_quorum = false;

  Quorums quorums() const { return Quorums(n); }
};

/// Rng seed of process p's stack for group g under session seed `seed`:
/// the one per-(process, group) rule of every multi-stack harness. The g
/// term vanishes at g = 0, so group 0 draws what a one-group run draws.
inline std::uint64_t stack_seed(std::uint64_t seed, ProcessId p, GroupId g) {
  return splitmix64(seed) ^ (0x1000 + p) ^
         (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL);
}

class ProtocolStack {
 public:
  /// `keys` must hold this process's row of pairwise secrets (s_self,j for
  /// all j) and outlive the stack. `adversary` may be null (correct
  /// process); it is borrowed, not owned.
  ProtocolStack(StackConfig cfg, Transport& transport, const KeyChain& keys,
                std::uint64_t rng_seed, Adversary* adversary = nullptr);
  ~ProtocolStack();

  ProtocolStack(const ProtocolStack&) = delete;
  ProtocolStack& operator=(const ProtocolStack&) = delete;

  const StackConfig& config() const { return cfg_; }
  const Quorums& quorums() const { return quorums_; }
  ProcessId self() const { return cfg_.self; }
  GroupId group() const { return cfg_.group; }
  std::uint32_t n() const { return cfg_.n; }
  const KeyChain& keys() const { return keys_; }
  Rng& rng() { return rng_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  Adversary* adversary() const { return adversary_; }

  /// Entry point for the transport: a frame arrived from peer `from`.
  /// Decodes (the payload stays a zero-copy Slice into `frame`),
  /// dispatches, then drains all internally queued work. The frame's
  /// Buffer is pinned for as long as any protocol holds the payload.
  void on_packet(ProcessId from, Slice frame);

  /// Bills modeled CPU time for expensive local work (see
  /// Transport::charge_cpu).
  void charge_cpu(std::uint64_t ns);

  // --- observability -----------------------------------------------------
  /// Attaches a per-process event tracer (nullptr detaches). Not owned;
  /// must outlive the stack or be detached first. With no tracer attached
  /// every trace site is a single pointer test.
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  /// Timestamp source for traces and latency histograms: virtual time in
  /// the sim, monotonic clock on the TCP transport, constant 0 on
  /// clock-less test loopbacks. Only differences are meaningful.
  std::uint64_t now_ns() const { return transport_.now_ns(); }

  /// Records a protocol phase transition (no-op without a tracer). `sub`
  /// carries the phase-specific detail byte documented on TracePhase.
  void trace_phase(const InstanceId& id, TracePhase ph, std::uint64_t arg = 0,
                   std::uint8_t sub = 0) {
    if (tracer_ != nullptr) {
      tracer_->record(
          {now_ns(), TraceEventKind::kPhase, static_cast<std::uint8_t>(ph),
           0xffffffffu, arg, id.trace_path(), sub});
    }
  }
  /// Terminal deliver/decide: bills the per-protocol latency histogram and
  /// records a kComplete event carrying the spawn->now latency.
  void note_complete(const InstanceId& id, std::uint64_t spawn_ns);
  /// Protocol-level validation failure: counts the drop and traces it.
  void note_invalid(const InstanceId& id);

  /// Outbound path used by protocols. `to == self` loops back locally
  /// without touching the transport.
  void send_message(ProcessId to, const Message& m);
  /// Sends to all n processes (self via local loopback).
  void broadcast_message(const Message& m);

  // --- registry (called by Protocol's ctor/dtor) -------------------------
  void register_instance(Protocol* p);
  void unregister_instance(Protocol* p);

  /// Re-attempts dispatch of out-of-context messages whose path has the
  /// given prefix — call after a spawn window advances.
  void retry_ooc(const InstanceId& prefix);
  /// Schedules `p->collect_garbage()` at the next safe point.
  void defer_gc(Protocol* p);

  /// Drains queued local work (self-deliveries, OOC drains, GC). Invoked
  /// automatically from on_packet and from protocol sends issued outside a
  /// dispatch; harnesses may also call it directly after API calls.
  void pump();

  // --- introspection (tests) ---------------------------------------------
  std::size_t instance_count() const { return registry_.size(); }
  bool has_instance(const InstanceId& id) const { return registry_.contains(id); }
  std::size_t ooc_size() const { return ooc_total_; }

 private:
  struct OocEntry {
    ProcessId from;
    Message msg;
    std::uint64_t seq;
  };

  void trace_drop(TraceDrop d, std::uint32_t peer, TracePath path) {
    if (tracer_ != nullptr) {
      tracer_->record({now_ns(), TraceEventKind::kDrop,
                       static_cast<std::uint8_t>(d), peer, 0, path});
    }
  }

  void dispatch(ProcessId from, Message m);
  /// Finds or spawns the instance for `path`. nullptr with drop=false
  /// means "out of context"; drop=true means discard.
  Protocol* resolve(const InstanceId& path, bool& drop);
  void ooc_store(ProcessId from, Message m);
  void ooc_purge_prefix(const InstanceId& prefix);

  StackConfig cfg_;
  Quorums quorums_;
  Transport& transport_;
  const KeyChain& keys_;
  Rng rng_;
  Metrics metrics_;
  Adversary* adversary_;
  Tracer* tracer_ = nullptr;

  std::unordered_map<InstanceId, Protocol*, InstanceIdHash> registry_;

  // Out-of-context table: exact-path index plus per-sender FIFO for quota
  // eviction.
  std::unordered_map<InstanceId, std::vector<OocEntry>, InstanceIdHash> ooc_;
  std::vector<std::deque<std::pair<std::uint64_t, InstanceId>>> ooc_fifo_;
  std::vector<std::size_t> ooc_count_;
  std::size_t ooc_total_ = 0;
  std::uint64_t ooc_seq_ = 0;

  std::deque<Message> self_queue_;
  std::deque<InstanceId> drain_queue_;
  std::deque<Protocol*> gc_queue_;
  bool pumping_ = false;

  friend class Protocol;
};

}  // namespace ritas
