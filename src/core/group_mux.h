// GroupMux — inbound demultiplexer for several consensus groups sharing
// one transport mesh.
//
// Sharded SMR runs G independent RITAS groups per process over a single
// set of pairwise channels (one TCP stream / simulated link per process
// pair, NOT per group). Outbound needs no help: every stack stamps its
// GroupId into the frame header and all stacks send through the same
// Transport. Inbound, the mux reads the (version, group) frame prefix —
// Message::peek_group, a few bytes, no full header parse — and hands the
// frame to the owning stack's on_packet. Frames for a group with no local
// stack, and frames whose prefix is unreadable, are counted drops here,
// never throws: the mux is the first code Byzantine bytes meet.
//
// Threading: on_packet runs on the transport poll thread only, which also
// owns every attached stack and the drop counters. attach/detach only
// while no traffic is in flight.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/stack.h"

namespace ritas {

class GroupMux {
 public:
  GroupMux() = default;
  GroupMux(const GroupMux&) = delete;
  GroupMux& operator=(const GroupMux&) = delete;

  /// Registers `stack` as the owner of group `g` (one stack per group;
  /// re-attaching a group replaces the route). The stack is borrowed and
  /// must outlive the mux or be detached first.
  void attach(GroupId g, ProtocolStack& stack) { routes_[g] = &stack; }
  void detach(GroupId g) { routes_.erase(g); }

  std::size_t group_count() const { return routes_.size(); }
  bool serves(GroupId g) const { return routes_.contains(g); }

  /// Entry point for the shared transport: peeks the frame's group and
  /// routes it. Unreadable prefix => malformed drop; no stack attached for
  /// the group => foreign drop. Byzantine input never throws.
  void on_packet(ProcessId from, Slice frame) {
    const auto g = Message::peek_group(frame);
    if (!g) {
      ++malformed_dropped_;
      return;
    }
    auto it = routes_.find(*g);
    if (it == routes_.end()) {
      ++foreign_dropped_;
      return;
    }
    it->second->on_packet(from, std::move(frame));
  }

  /// Frames whose (version, group) prefix did not parse.
  std::uint64_t malformed_dropped() const { return malformed_dropped_; }
  /// Frames addressed to a group with no stack attached here.
  std::uint64_t foreign_dropped() const { return foreign_dropped_; }

 private:
  std::unordered_map<GroupId, ProtocolStack*> routes_;
  std::uint64_t malformed_dropped_ = 0;
  std::uint64_t foreign_dropped_ = 0;
};

}  // namespace ritas
