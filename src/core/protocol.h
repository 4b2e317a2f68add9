// Base class for every protocol instance — the paper's "control block".
//
// A Protocol owns its child protocol instances (control block chaining,
// §3.3): creating a parent creates children as needed, destroying a parent
// destroys the whole subtree, and the stack's registry maps instance paths
// to live control blocks for demultiplexing. Protocols are passive state
// machines: they only run inside `on_message` / child-delivery callbacks
// and the explicit API calls (`propose`, `bcast`) of their concrete types.
// No protocol ever blocks, sleeps, or reads a clock — the stack is
// asynchronous by construction.
#pragma once

#include <map>
#include <memory>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/trace.h"
#include "core/instance_id.h"
#include "core/types.h"

namespace ritas {

class ProtocolStack;

class Protocol {
 public:
  Protocol(ProtocolStack& stack, Protocol* parent, InstanceId id);
  virtual ~Protocol();

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  const InstanceId& id() const { return id_; }
  Protocol* parent() const { return parent_; }

  /// Handles a message addressed to this instance. `from` is the
  /// authenticated sender; tag/payload come from the decoded Message. The
  /// payload Slice aliases the arrival frame (zero-copy) and may be
  /// retained past this call — it pins the frame's Buffer for as long as
  /// the protocol keeps it.
  virtual void on_message(ProcessId from, std::uint8_t tag,
                          const Slice& payload) = 0;

  /// Creates the child for `c` on demand when a message addressed below
  /// this instance arrives before the child exists. Returning nullptr with
  /// drop=false sends the message to the out-of-context table; drop=true
  /// discards it permanently (path known dead, e.g. already-delivered
  /// broadcast). Default: everything is out-of-context.
  virtual Protocol* spawn_child(const Component& c, bool& drop);

  /// Invoked from the stack's safe point after defer_gc(); concrete types
  /// free completed children here (never from inside delivery callbacks,
  /// where a child may still be on the call stack).
  virtual void collect_garbage() {}

  Protocol* find_child(const Component& c) const;

  /// Transport timestamp at construction; with note_complete() this yields
  /// the instance's spawn->terminal latency.
  std::uint64_t spawn_ns() const { return spawn_ns_; }

 protected:
  /// Takes ownership; the child must have been constructed with
  /// id() == this->id().child(c).
  Protocol& add_child(std::unique_ptr<Protocol> child);
  /// Destroys one child subtree. Only call from API entry points or
  /// collect_garbage(), never from a delivery callback.
  void destroy_child(const Component& c);

  /// Sends to one peer (or loops back locally when to == self). The Slice
  /// may alias an arrival frame (relaying received bytes never copies) or
  /// adopt a freshly built Bytes rvalue.
  void send(ProcessId to, std::uint8_t tag, Slice payload) const;
  /// Sends to every process in the group, self included (local loopback).
  /// Encodes the frame exactly once regardless of n.
  void broadcast(std::uint8_t tag, Slice payload) const;

  /// Records a phase-transition trace event for this instance.
  void trace(TracePhase ph, std::uint64_t arg = 0, std::uint8_t sub = 0) const;
  /// Counts + traces a protocol-level validation drop (replaces direct
  /// `++stack_.metrics().invalid_dropped`).
  void drop_invalid() const;
  /// Marks the instance's terminal event (deliver/decide): bills the
  /// per-protocol latency histogram and emits a kComplete trace event.
  void complete() const;

  ProtocolStack& stack_;

 private:
  Protocol* const parent_;
  const InstanceId id_;
  std::uint64_t spawn_ns_ = 0;
  std::map<Component, std::unique_ptr<Protocol>> children_;
};

}  // namespace ritas
