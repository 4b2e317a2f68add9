#include "ritas/broadcast_service.h"

#include <stdexcept>
#include <string>

#include "core/echo_broadcast.h"
#include "core/stack.h"
#include "core/variants.h"

namespace ritas {

BroadcastService::BroadcastService(ProtocolStack& stack, ProtocolType type,
                                   std::uint32_t window, DeliverFn deliver)
    : Protocol(stack, nullptr, InstanceId::root(type, 0)),
      window_(window),
      deliver_(std::move(deliver)),
      created_(stack.n(), 0),
      delivered_(stack.n(), 0) {}

void BroadcastService::bcast(Slice payload) {
  const bool rb = id().leaf().type == ProtocolType::kReliableBroadcast;
  bool drop = false;
  Protocol* b = find_child(child_component(stack_.self(), sent_));
  if (b == nullptr) b = admit(stack_.self(), sent_, drop);
  if (b == nullptr) {
    throw std::logic_error(std::string(rb ? "rb_bcast" : "eb_bcast") +
                           ": sender outran the receive window");
  }
  ++sent_;
  if (rb) {
    static_cast<RbAlgorithm*>(b)->bcast(std::move(payload));
  } else {
    static_cast<EchoBroadcast*>(b)->bcast(std::move(payload));
  }
}

void BroadcastService::on_message(ProcessId, std::uint8_t, const Slice&) {
  drop_invalid();  // traffic flows through children only
}

Protocol* BroadcastService::spawn_child(const Component& c, bool& drop) {
  const std::uint64_t origin = c.seq >> 32;
  drop = c.type != id().leaf().type || origin >= stack_.n();
  if (drop) return nullptr;
  return admit(static_cast<ProcessId>(origin), c.seq & 0xffffffffu, drop);
}

Protocol* BroadcastService::admit(ProcessId origin, std::uint64_t k,
                                  bool& drop) {
  std::uint64_t& created = created_[origin];
  // Below the floor the broadcast was delivered and freed: late ECHO/READY
  // stragglers are dropped, like AtomicBroadcast's delivered rule.
  drop = k < created;
  if (drop || k >= delivered_[origin] + window_) return nullptr;
  Protocol* child = nullptr;
  for (; created <= k; ++created) {
    const InstanceId cid = id().child(child_component(origin, created));
    auto deliver = [this, origin, j = created](Slice payload) {
      on_deliver(origin, j, std::move(payload));
    };
    if (cid.leaf().type == ProtocolType::kReliableBroadcast) {
      child = &add_child(make_rb(stack_, this, cid, origin,
                                 Attribution::kPayload, std::move(deliver)));
    } else {
      child = &add_child(std::make_unique<EchoBroadcast>(
          stack_, this, cid, origin, Attribution::kPayload, std::move(deliver)));
    }
  }
  return child;
}

void BroadcastService::on_deliver(ProcessId origin, std::uint64_t k,
                                  Slice payload) {
  std::uint64_t& delivered = delivered_[origin];
  const std::uint64_t old_end = delivered + window_;
  if (k + 1 > delivered) delivered = k + 1;
  // Frames parked beyond the old window end may now create their children.
  for (std::uint64_t j = old_end; j < delivered + window_; ++j) {
    stack_.retry_ooc(id().child(child_component(origin, j)));
  }
  deliver_(origin, std::move(payload));
  // Inside the child's delivery callback: free it at the next safe point.
  gc_candidates_.push_back(child_component(origin, k));
  stack_.defer_gc(this);
}

void BroadcastService::collect_garbage() {
  for (const Component& c : gc_candidates_) destroy_child(c);
  gc_candidates_.clear();
}

}  // namespace ritas
