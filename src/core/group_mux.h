// GroupMux — inbound demultiplexer for several consensus groups sharing
// one transport mesh.
//
// Sharded SMR runs G independent RITAS groups per process over a single
// set of pairwise channels (one TCP stream / simulated link per process
// pair, NOT per group). Outbound needs no help: every stack stamps its
// GroupId into the frame header and all stacks send through the same
// Transport. Inbound, the mux reads the (version, group) frame prefix —
// Message::peek_group, a few bytes, no full header parse — and hands the
// frame to the owning stack's on_packet. A frame it cannot route (an
// unreadable prefix, or a group with no local stack) goes to the stack of
// the lowest attached group, whose on_packet counts and traces it as
// `malformed_dropped` or `foreign_group_dropped`. The mux keeps no
// counters of its own and never throws: it is the first code Byzantine
// bytes meet.
//
// Threading: on_packet runs on the transport poll thread only, which also
// owns every attached stack. attach only while no traffic is in flight,
// and attach at least one group before the first frame.
#pragma once

#include <cassert>
#include <map>

#include "core/stack.h"

namespace ritas {

class GroupMux {
 public:
  GroupMux() = default;
  GroupMux(const GroupMux&) = delete;
  GroupMux& operator=(const GroupMux&) = delete;

  /// Registers `stack` as the owner of group `g` (one stack per group;
  /// re-attaching a group replaces the route). The stack is borrowed and
  /// must outlive the mux.
  void attach(GroupId g, ProtocolStack& stack) { routes_[g] = &stack; }

  /// Entry point for the shared transport: peeks the frame's group and
  /// routes it; an unroutable frame goes to the lowest group's stack,
  /// which counts the drop.
  void on_packet(ProcessId from, Slice frame) {
    assert(!routes_.empty());
    const auto g = Message::peek_group(frame);
    auto it = g ? routes_.find(*g) : routes_.end();
    if (it == routes_.end()) it = routes_.begin();
    it->second->on_packet(from, std::move(frame));
  }

 private:
  std::map<GroupId, ProtocolStack*> routes_;
};

}  // namespace ritas
