// ritas::BroadcastService — one session's rb (or eb) broadcasts, as the
// children of one service root (type, 0). Origin o's k-th broadcast is
// child (type, o<<32|k), spawned on demand (§3.3) under one window rule
// per origin, with `created` (children below it exist or were freed) and
// `delivered` (one past the highest delivered k):
//
//   k < created, or o >= n     drop (unroutable_dropped): delivered and
//                              freed, or no such origin;
//   k >= delivered + window    out of context until deliveries catch up;
//   otherwise                  create children created..k.
//
// The local bcast() obeys the same rule. A delivery re-offers only the
// parked paths it lets in, and the delivered child is freed at the stack's
// next safe point (collect_garbage). The root takes no traffic itself.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/protocol.h"

namespace ritas {

class BroadcastService final : public Protocol {
 public:
  /// The Slice aliases the frame that carried the payload.
  using DeliverFn = std::function<void(ProcessId origin, Slice payload)>;

  /// `type` is kReliableBroadcast (children from make_rb) or
  /// kEchoBroadcast.
  BroadcastService(ProtocolStack& stack, ProtocolType type,
                   std::uint32_t window, DeliverFn deliver);

  /// Starts this process's next broadcast. Beyond the window it throws
  /// std::logic_error and uses up no sequence number.
  void bcast(Slice payload);

  /// Origin o's k-th broadcast, relative to the service root.
  Component child_component(ProcessId origin, std::uint64_t k) const {
    return {id().leaf().type, (static_cast<std::uint64_t>(origin) << 32) | k};
  }

  void on_message(ProcessId from, std::uint8_t tag,
                  const Slice& payload) override;
  Protocol* spawn_child(const Component& c, bool& drop) override;
  void collect_garbage() override;

 private:
  /// Child k of origin o under the window rule (nullptr: see `drop`).
  Protocol* admit(ProcessId origin, std::uint64_t k, bool& drop);
  void on_deliver(ProcessId origin, std::uint64_t k, Slice payload);

  const std::uint32_t window_;
  DeliverFn deliver_;
  std::vector<std::uint64_t> created_, delivered_;  // [origin]
  std::uint64_t sent_ = 0;                          // this process's next k
  std::vector<Component> gc_candidates_;  // delivered since the last GC
};

}  // namespace ritas
