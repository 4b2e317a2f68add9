#include "core/atomic_broadcast.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace ritas {

namespace {
// seq layout: bit 62 = subtype (0 = AB_MSG, 1 = AB_VECT).
//   AB_MSG:  [62]=0, [61:40]=origin, [39:0]=rbid
//   AB_VECT: [62]=1, [61:22]=round,  [21:0]=origin
constexpr std::uint64_t kVectBit = 1ULL << 62;
constexpr std::uint64_t kOriginMask = (1ULL << 22) - 1;
constexpr std::uint64_t kRbidMask = (1ULL << 40) - 1;
constexpr std::size_t kMaxIdsPerVector = 1u << 20;
// How far beyond the enqueued floor per origin new AB_MSG broadcast
// instances are accepted; further-ahead traffic parks out-of-context.
constexpr std::uint64_t kAbMsgWindow = 8192;
}  // namespace

AtomicBroadcast::AtomicBroadcast(ProtocolStack& stack, Protocol* parent,
                                 InstanceId id, DeliverFn deliver)
    : Protocol(stack, parent, std::move(id)),
      deliver_(std::move(deliver)),
      enqueued_(stack.n()),
      delivered_(stack.n()) {}

std::uint64_t AtomicBroadcast::msg_seq(ProcessId origin, std::uint64_t rbid) {
  return (static_cast<std::uint64_t>(origin) << 40) | (rbid & kRbidMask);
}

std::uint64_t AtomicBroadcast::vect_seq(std::uint32_t round, ProcessId origin) {
  return kVectBit | (static_cast<std::uint64_t>(round) << 22) |
         (origin & kOriginMask);
}

bool AtomicBroadcast::decode_rb_seq(std::uint64_t seq, RbKey& out) {
  if (seq >> 63) return false;
  out.is_vect = (seq & kVectBit) != 0;
  if (out.is_vect) {
    out.origin = static_cast<ProcessId>(seq & kOriginMask);
    const std::uint64_t r = (seq & ~kVectBit) >> 22;
    if (r > 0xffffffffULL) return false;
    out.round = static_cast<std::uint32_t>(r);
    out.rbid = 0;
  } else {
    out.rbid = seq & kRbidMask;
    out.origin = static_cast<ProcessId>(seq >> 40);
    out.round = 0;
  }
  return true;
}

Bytes AtomicBroadcast::encode_ids(const std::vector<MsgId>& ids) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const MsgId& id : ids) {
    w.u32(id.origin);
    w.u64(id.rbid);
  }
  return std::move(w).take();
}

std::optional<std::vector<AtomicBroadcast::MsgId>> AtomicBroadcast::decode_ids(
    ByteView payload) {
  Reader r(payload);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxIdsPerVector) return std::nullopt;
  std::vector<MsgId> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MsgId id;
    id.origin = r.u32();
    id.rbid = r.u64();
    out.push_back(id);
  }
  if (!r.done()) return std::nullopt;
  return out;
}

RbAlgorithm& AtomicBroadcast::ensure_msg_rb(ProcessId origin,
                                            std::uint64_t rbid) {
  const Component c{ProtocolType::kReliableBroadcast, msg_seq(origin, rbid)};
  if (auto* existing = find_child(c)) {
    return static_cast<RbAlgorithm&>(*existing);
  }
  auto rb = make_rb(
      stack_, this, id().child(c), origin, Attribution::kPayload,
      [this, origin, rbid](Slice payload) {
        on_msg_deliver(origin, rbid, std::move(payload));
      });
  auto& ref = *rb;
  add_child(std::move(rb));
  return ref;
}

RbAlgorithm& AtomicBroadcast::ensure_vect_rb(std::uint32_t round,
                                             ProcessId origin) {
  const Component c{ProtocolType::kReliableBroadcast, vect_seq(round, origin)};
  if (auto* existing = find_child(c)) {
    return static_cast<RbAlgorithm&>(*existing);
  }
  auto rb = make_rb(
      stack_, this, id().child(c), origin, Attribution::kAgreement,
      [this, round, origin](Slice payload) {
        on_vect_deliver(round, origin, payload);
      });
  auto& ref = *rb;
  add_child(std::move(rb));
  return ref;
}

MultiValuedConsensus& AtomicBroadcast::ensure_mvc(std::uint32_t round) {
  const Component c{ProtocolType::kMultiValuedConsensus, round};
  if (auto* existing = find_child(c)) {
    return static_cast<MultiValuedConsensus&>(*existing);
  }
  auto mvc = std::make_unique<MultiValuedConsensus>(
      stack_, this, id().child(c), Attribution::kAgreement,
      [this, round](std::optional<Bytes> v) { on_mvc_decide(round, std::move(v)); });
  auto& ref = *mvc;
  add_child(std::move(mvc));
  return ref;
}

AtomicBroadcast::VectState& AtomicBroadcast::vect_state(std::uint32_t round) {
  auto it = vects_.find(round);
  if (it == vects_.end()) {
    it = vects_.emplace(round, VectState{}).first;
    it->second.vectors.resize(stack_.n());
  }
  return it->second;
}

Bytes AtomicBroadcast::encode_batch(const std::vector<Slice>& msgs) {
  std::size_t total = 4;
  for (const Slice& m : msgs) total += 4 + m.size();
  Writer w(total);
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const Slice& m : msgs) w.bytes(m);
  return std::move(w).take();
}

std::optional<std::vector<Slice>> AtomicBroadcast::decode_batch(
    const Slice& payload) {
  Reader r(payload.view());
  const std::uint32_t count = r.u32();
  // Every message costs at least its u32 length prefix, so any count the
  // payload cannot physically hold is rejected before the reserve.
  if (!r.ok() || count == 0 ||
      static_cast<std::size_t>(count) > payload.size() / 4) {
    return std::nullopt;
  }
  std::vector<Slice> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = r.u32();
    if (!r.ok() || r.remaining() < len) return std::nullopt;
    out.push_back(payload.subslice(r.pos(), len));
    r.skip(len);
  }
  if (!r.done()) return std::nullopt;
  return out;
}

std::uint64_t AtomicBroadcast::bcast(Slice payload) {
  if (!stack_.config().ab_batch.enabled) {
    const std::uint64_t rbid = next_rbid_++;
    trace(TracePhase::kAbBcast, rbid);
    ensure_msg_rb(stack_.self(), rbid).bcast(std::move(payload));
    return rbid;
  }
  const std::uint64_t rbid = next_rbid_;  // the batch this message rides in
  trace(TracePhase::kAbBcast, rbid);
  open_batch_bytes_ += 4 + payload.size();
  open_batch_.push_back(std::move(payload));
  maybe_seal();
  return rbid;
}

void AtomicBroadcast::flush() {
  if (!stack_.config().ab_batch.enabled || open_batch_.empty()) return;
  seal_batch();
}

void AtomicBroadcast::maybe_seal() {
  const AbBatchConfig& cfg = stack_.config().ab_batch;
  if (open_batch_.empty()) return;
  // Seal when a limit is hit, or when the dissemination pipeline is idle:
  // with no own batch in flight nothing else would ever trigger a seal, and
  // an idle pipeline means batching further buys nothing.
  if (own_inflight_ > 0 && open_batch_.size() < cfg.max_batch_msgs &&
      open_batch_bytes_ < cfg.max_batch_bytes) {
    return;
  }
  seal_batch();
}

void AtomicBroadcast::seal_batch() {
  const std::uint64_t rbid = next_rbid_++;
  ++own_inflight_;
  ++stack_.metrics().ab_batches_sealed;
  stack_.metrics().ab_batch_msgs += open_batch_.size();
  trace(TracePhase::kAbBatchSeal, rbid,
        static_cast<std::uint8_t>(std::min<std::size_t>(open_batch_.size(), 255)));
  Bytes framed = encode_batch(open_batch_);
  open_batch_.clear();
  open_batch_bytes_ = 0;
  ensure_msg_rb(stack_.self(), rbid).bcast(std::move(framed));
}

void AtomicBroadcast::on_message(ProcessId, std::uint8_t, const Slice&) {
  drop_invalid();  // traffic flows through children only
}

void AtomicBroadcast::IdWatermarks::insert(const MsgId& id) {
  std::uint64_t& floor = floor_[id.origin];
  if (id.rbid != floor) {
    if (id.rbid > floor) extra_.insert(id);
    return;
  }
  ++floor;
  // Compact any extras that are now contiguous with the floor.
  for (auto it = extra_.find(MsgId{id.origin, floor}); it != extra_.end();
       it = extra_.find(MsgId{id.origin, floor})) {
    extra_.erase(it);
    ++floor;
  }
}

void AtomicBroadcast::on_msg_deliver(ProcessId origin, std::uint64_t rbid,
                                     Slice payload) {
  const bool batched = stack_.config().ab_batch.enabled;
  if (batched && origin == stack_.self()) {
    // Our own batch completed dissemination locally: the pipeline has room,
    // so the open batch (if any) may seal now.
    if (own_inflight_ > 0) --own_inflight_;
    maybe_seal();
  }
  const MsgId id{origin, rbid};
  if (delivered_.contains(id) || contents_.contains(id)) return;  // defensive
  std::vector<Slice> msgs;
  if (batched) {
    auto decoded = decode_batch(payload);
    if (!decoded) {
      // RB agreement: every correct process sees the same bytes, so all
      // drop this identifier alike — it can never gather the f+1 vector
      // votes needed to be decided, and nobody wedges on it.
      drop_invalid();
      ++stack_.metrics().ab_batch_malformed;
      return;
    }
    msgs = std::move(*decoded);
    // Zero-copy unpack: every sub-message aliases the sealed batch frame.
    for (const Slice& m : msgs) {
      stack_.metrics().payload_bytes_aliased += m.size();
    }
  } else {
    msgs.push_back(std::move(payload));
  }
  contents_.emplace(id, std::move(msgs));
  if (enqueued_.contains(id)) {
    // Decided before the content arrived locally; it may now be at the
    // head of the delivery queue.
    flush_deliveries();
    return;
  }
  pending_.insert(id);
  try_start_round();
}

void AtomicBroadcast::try_start_round() {
  if (in_round_ || pending_.empty()) return;
  in_round_ = true;
  proposed_mvc_ = false;
  ++stack_.metrics().ab_rounds;
  trace(TracePhase::kAbRound, round_);

  // Eagerly create this round's agreement instances so peer traffic routes
  // without out-of-context detours.
  for (ProcessId j = 0; j < stack_.n(); ++j) ensure_vect_rb(round_, j);
  ensure_mvc(round_);

  std::vector<MsgId> v(pending_.begin(), pending_.end());  // already sorted
  ensure_vect_rb(round_, stack_.self()).bcast(encode_ids(v));
  maybe_propose_mvc();
}

void AtomicBroadcast::on_vect_deliver(std::uint32_t round, ProcessId origin,
                                      const Slice& payload) {
  if (round < round_) return;  // stale round; we already decided it
  auto ids = decode_ids(payload);
  if (!ids) {
    drop_invalid();
    return;
  }
  VectState& vs = vect_state(round);
  if (vs.vectors[origin].has_value()) return;  // defensive; RB delivers once
  vs.vectors[origin] = std::move(*ids);
  vs.order.push_back(origin);
  if (round == round_) maybe_propose_mvc();
}

void AtomicBroadcast::maybe_propose_mvc() {
  const Quorums& q = stack_.quorums();
  if (!in_round_ || proposed_mvc_) return;
  VectState& vs = vect_state(round_);
  if (vs.order.size() < q.n_minus_f()) return;
  proposed_mvc_ = true;

  // W := identifiers appearing in >= f+1 of the first n-f vectors.
  std::map<MsgId, std::uint32_t> counts;
  for (std::uint32_t i = 0; i < q.n_minus_f(); ++i) {
    const auto& vec = *vs.vectors[vs.order[i]];
    for (const MsgId& id : vec) ++counts[id];
  }
  std::vector<MsgId> w;
  for (const auto& [id, c] : counts) {
    if (c >= q.f + 1) w.push_back(id);
  }
  ensure_mvc(round_).propose(encode_ids(w));
}

void AtomicBroadcast::on_mvc_decide(std::uint32_t round,
                                    std::optional<Bytes> value) {
  if (round != round_ || !in_round_) return;  // defensive

  if (value) {
    auto ids = decode_ids(*value);
    if (ids) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
      for (const MsgId& id : *ids) {
        if (enqueued_.contains(id)) continue;
        enqueued_.insert(id);
        pending_.erase(id);
        delivery_queue_.push_back(id);
      }
      // Watermarks advanced: AB_MSG traffic parked beyond the window may
      // now be routable.
      stack_.retry_ooc(this->id());
    } else {
      // MVC validity means a correct process proposed the decided bytes;
      // undecodable means Byzantine collusion beyond f or a bug. Same bytes
      // at every correct process => every correct process skips this round.
      LOG_WARN("atomic broadcast %s: undecodable MVC decision round %u",
               this->id().to_string().c_str(), round);
    }
  }

  vects_.erase(round_);
  in_round_ = false;
  ++round_;
  flush_deliveries();
  stack_.defer_gc(this);
  try_start_round();
  // Round machinery ticked: re-check the seal conditions so an open batch
  // never outlives the agreement activity that would carry it.
  maybe_seal();
}

void AtomicBroadcast::flush_deliveries() {
  while (!delivery_queue_.empty()) {
    const MsgId id = delivery_queue_.front();
    auto it = contents_.find(id);
    if (it == contents_.end()) return;  // totality will bring the content
    std::vector<Slice> msgs = std::move(it->second);
    contents_.erase(it);
    delivery_queue_.pop_front();
    delivered_.insert(id);
    gc_candidates_.push_back(id);
    if (stack_.config().ab_batch.enabled) {
      trace(TracePhase::kAbBatchUnpack, id.rbid,
            static_cast<std::uint8_t>(std::min<std::size_t>(msgs.size(), 255)));
    }
    for (Slice& m : msgs) {
      ++stack_.metrics().ab_delivered;
      trace(TracePhase::kAbDeliver, id.rbid,
            static_cast<std::uint8_t>(id.origin & 0xff));
      if (deliver_) deliver_(id.origin, id.rbid, std::move(m));
    }
  }
}

Protocol* AtomicBroadcast::spawn_child(const Component& c, bool& drop) {
  drop = false;
  if (c.type == ProtocolType::kMultiValuedConsensus) {
    if (c.seq < round_) {
      drop = true;  // completed agreement round
      return nullptr;
    }
    if (c.seq > round_ + kRoundWindow) return nullptr;  // OOC
    return &ensure_mvc(static_cast<std::uint32_t>(c.seq));
  }
  if (c.type != ProtocolType::kReliableBroadcast) {
    drop = true;
    return nullptr;
  }
  RbKey key;
  if (!decode_rb_seq(c.seq, key) || key.origin >= stack_.n()) {
    drop = true;
    return nullptr;
  }
  if (key.is_vect) {
    if (key.round < round_) {
      drop = true;  // completed round
      return nullptr;
    }
    if (key.round > round_ + kRoundWindow) return nullptr;
    return &ensure_vect_rb(key.round, key.origin);
  }
  const MsgId id{key.origin, key.rbid};
  if (delivered_.contains(id)) {
    drop = true;  // fully delivered; stragglers' echoes are useless to us
    return nullptr;
  }
  if (key.rbid >= enqueued_.floor(key.origin) + kAbMsgWindow) {
    return nullptr;  // flow-control window; park out-of-context
  }
  return &ensure_msg_rb(key.origin, key.rbid);
}

void AtomicBroadcast::collect_garbage() {
  // Safe to free: AB_MSG broadcasts whose payload was delivered (every
  // contribution we owe peers — ECHO/READY — was already broadcast), and
  // agreement instances a few rounds behind (grace so that our binary
  // consensus children can finish their courtesy round for laggards).
  constexpr std::uint32_t kRoundGrace = 4;
  std::vector<Component> dead;
  for (const MsgId& id : gc_candidates_) {
    const Component c{ProtocolType::kReliableBroadcast, msg_seq(id.origin, id.rbid)};
    if (find_child(c) != nullptr) dead.push_back(c);
  }
  gc_candidates_.clear();
  for (std::uint32_t r = gc_round_floor_; r + kRoundGrace < round_; ++r) {
    const Component mc{ProtocolType::kMultiValuedConsensus, r};
    if (find_child(mc) != nullptr) dead.push_back(mc);
    for (ProcessId j = 0; j < stack_.n(); ++j) {
      const Component vc{ProtocolType::kReliableBroadcast, vect_seq(r, j)};
      if (find_child(vc) != nullptr) dead.push_back(vc);
    }
    gc_round_floor_ = r + 1;
  }
  for (const Component& c : dead) destroy_child(c);
}

}  // namespace ritas
