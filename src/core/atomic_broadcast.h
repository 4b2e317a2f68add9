// Atomic broadcast (paper §2.7, after Correia et al., adapted to use
// multi-valued consensus and message *identifiers* instead of hashes).
//
// Two tasks run concurrently:
//
//   dissemination: ab_bcast(m) reliably broadcasts m under the identifier
//     (origin, rbid) — the identifier is carried by the instance path, so
//     AB_MSG payloads are exactly the application bytes;
//
//   agreement (rounds): when undelivered identifiers exist, reliably
//     broadcast (AB_VECT, r, V) where V lists them; on n-f AB_VECT for
//     round r, W := identifiers present in >= f+1 of those vectors; run
//     MVC_r(W); if the decision W' != ⊥, deliver the messages identified
//     by W' in deterministic (origin, rbid) order.
//
// Identifiers decided before their content arrives wait in a FIFO delivery
// queue (reliable-broadcast totality guarantees the content shows up);
// total order follows from every correct process appending the same
// decided identifier sequence to that queue.
//
// Batching (StackConfig::ab_batch): when enabled, bcast() appends to a
// per-origin open batch instead of starting an RB per message. The batch
// is sealed into ONE AB_MSG dissemination RB — whose payload is the
// length-prefixed framing documented in docs/PROTOCOLS.md — when it
// reaches max_batch_bytes/max_batch_msgs, when a protocol event frees the
// dissemination pipeline (our previous batch RB-delivers locally, or an
// agreement round completes), or on an explicit flush(). No clocks are
// involved: sealing is driven purely by protocol events, so simulated
// runs stay deterministic. Delivery unpacks batches message by message,
// keeping per-message total order and the Figure-7 agreement-cost
// accounting unchanged; identifiers (origin, rbid) then name batches, and
// every message in a batch shares its batch's rbid.
// Malformed batch framing from a Byzantine origin is a counted drop
// (ab_batch_malformed + invalid_dropped), never a throw, and is dropped
// identically at every correct process (RB agreement on the bytes).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "core/multivalued_consensus.h"
#include "core/protocol.h"
#include "core/stack.h"
#include "core/variants.h"

namespace ritas {

class AtomicBroadcast final : public Protocol {
 public:
  struct MsgId {
    ProcessId origin;
    std::uint64_t rbid;
    friend auto operator<=>(const MsgId&, const MsgId&) = default;
  };
  /// Called once per delivered message, in total order. The Slice aliases
  /// the sealed batch frame (or the AB_MSG frame when batching is off) —
  /// zero-copy from the wire; keeping it pins that frame.
  using DeliverFn = std::function<void(ProcessId origin, std::uint64_t rbid, Slice payload)>;

  AtomicBroadcast(ProtocolStack& stack, Protocol* parent, InstanceId id,
                  DeliverFn deliver);

  /// Atomically broadcasts `payload` to the group. Returns the local
  /// identifier (rbid) assigned to the message — with batching enabled,
  /// the identifier of the batch the message rides in (shared by every
  /// message of that batch).
  std::uint64_t bcast(Slice payload);

  /// Seals the open batch immediately. No-op when batching is disabled or
  /// the open batch is empty.
  void flush();

  /// Messages sitting in the open (unsealed) batch.
  std::size_t open_batch_msgs() const { return open_batch_.size(); }

  void on_message(ProcessId from, std::uint8_t tag,
                  const Slice& payload) override;
  Protocol* spawn_child(const Component& c, bool& drop) override;
  void collect_garbage() override;

  std::uint32_t round() const { return round_; }
  /// Identifiers held one by one (pending, awaiting content, or above a
  /// watermark floor); at quiescence this is O(n), not O(delivered).
  std::size_t tracked_ids() const {
    return pending_.size() + contents_.size() + enqueued_.extras() +
           delivered_.extras();
  }

  // Child path encodings (subtype packed into the high bits of seq).
  static std::uint64_t msg_seq(ProcessId origin, std::uint64_t rbid);
  static std::uint64_t vect_seq(std::uint32_t round, ProcessId origin);
  struct RbKey {
    bool is_vect;
    ProcessId origin;
    std::uint64_t rbid;   // valid when !is_vect
    std::uint32_t round;  // valid when is_vect
  };
  static bool decode_rb_seq(std::uint64_t seq, RbKey& out);

  static Bytes encode_ids(const std::vector<MsgId>& ids);
  static std::optional<std::vector<MsgId>> decode_ids(ByteView payload);

  // Batch framing (AB_MSG payloads when ab_batch.enabled):
  //   u32 count (>= 1) | count x (u32 len | len bytes)
  // decode_batch returns nullopt on any malformed framing: zero count,
  // count impossible for the payload size, truncated length prefix or
  // body, trailing bytes. Each returned Slice aliases `payload`'s backing
  // frame (zero-copy unpack); holding any of them pins the whole frame.
  static Bytes encode_batch(const std::vector<Slice>& msgs);
  static std::optional<std::vector<Slice>> decode_batch(const Slice& payload);

 private:
  /// A set of identifiers kept per origin as a floor (every rbid below it
  /// is in) plus sparse extras above it, so a set that fills in rbid order
  /// costs one number per origin.
  class IdWatermarks {
   public:
    explicit IdWatermarks(std::uint32_t n) : floor_(n, 0) {}
    bool contains(const MsgId& id) const {
      return id.rbid < floor_[id.origin] || extra_.contains(id);
    }
    void insert(const MsgId& id);
    std::uint64_t floor(ProcessId origin) const { return floor_[origin]; }
    std::size_t extras() const { return extra_.size(); }

   private:
    std::vector<std::uint64_t> floor_;
    std::set<MsgId> extra_;
  };

  struct VectState {
    std::vector<std::optional<std::vector<MsgId>>> vectors;
    std::vector<ProcessId> order;
  };

  void on_msg_deliver(ProcessId origin, std::uint64_t rbid, Slice payload);
  void on_vect_deliver(std::uint32_t round, ProcessId origin,
                       const Slice& payload);
  void on_mvc_decide(std::uint32_t round, std::optional<Bytes> value);
  /// Seals the open batch if a limit is hit or the dissemination pipeline
  /// is idle (no own batch in flight).
  void maybe_seal();
  void seal_batch();
  void try_start_round();
  void maybe_propose_mvc();
  void flush_deliveries();
  RbAlgorithm& ensure_msg_rb(ProcessId origin, std::uint64_t rbid);
  RbAlgorithm& ensure_vect_rb(std::uint32_t round, ProcessId origin);
  MultiValuedConsensus& ensure_mvc(std::uint32_t round);
  VectState& vect_state(std::uint32_t round);

  DeliverFn deliver_;

  std::uint64_t next_rbid_ = 0;

  // Batching state (unused when ab_batch.enabled is false). Queued slices
  // pin their source buffers until the batch is sealed into one frame.
  std::vector<Slice> open_batch_;        // messages awaiting a seal
  std::size_t open_batch_bytes_ = 0;     // framed size of the open batch
  std::uint64_t own_inflight_ = 0;       // own sealed batches not yet RB-delivered

  // Dissemination state. Each entry holds the unpacked messages of one
  // RB-delivered identifier (a single message when batching is off); the
  // slices alias the sealed batch frame.
  std::map<MsgId, std::vector<Slice>> contents_;
  std::set<MsgId> pending_;          // RB-delivered, not yet decided

  // Identifiers that entered the delivery queue, and those delivered to
  // the application. Both sets' extras stay below the enqueued floor plus
  // the AB_MSG window, beyond which spawn_child refuses an rbid.
  IdWatermarks enqueued_;
  IdWatermarks delivered_;
  std::vector<MsgId> gc_candidates_;  // delivered since the last GC pass

  // Agreement state.
  std::uint32_t round_ = 0;
  bool in_round_ = false;
  bool proposed_mvc_ = false;
  std::map<std::uint32_t, VectState> vects_;
  std::deque<MsgId> delivery_queue_;
  std::uint32_t gc_round_floor_ = 0;  // rounds below this are already freed
};

}  // namespace ritas
