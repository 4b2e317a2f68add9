// ShardedNode — one process of a real-TCP sharded SMR deployment.
//
// The TCP twin of sim::ShardedCluster's per-process wiring, on the shared
// ritas::Node runtime: the Node runs G ProtocolStacks (one per group =
// shard) behind its GroupMux on one TcpTransport (shared mesh); the
// ShardedNode adds one AtomicBroadcast root per group feeding one KV
// smr::ShardedService. The thread ownership map is Node's (ritas/node.h).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/atomic_broadcast.h"
#include "ritas/node.h"
#include "smr/sharded_service.h"

namespace ritas {

class ShardedNode {
 public:
  struct Options : Node::Options {
    /// Shard count: one consensus group (and one ProtocolStack) each.
    std::uint32_t groups = 1;
  };

  explicit ShardedNode(Options opts);
  ~ShardedNode();
  ShardedNode(const ShardedNode&) = delete;
  ShardedNode& operator=(const ShardedNode&) = delete;

  /// Establishes the mesh (blocks like TcpTransport::start) and starts
  /// the poll thread.
  void start();
  void stop();

  smr::ShardedService& service() { return *service_; }
  /// Routes `op` to its owning shard and broadcasts it there (any thread).
  smr::ShardId submit(std::uint64_t client, std::uint64_t seq, ByteView op);
  /// Commands applied on this process across all local shards.
  std::uint64_t applied_total() const;
  /// Blocks until applied_total() >= count; false on timeout.
  bool wait_applied_at_least(std::uint64_t count,
                             std::chrono::milliseconds timeout);

  /// Sum of every shard's stack counters (taken on the poll thread).
  Metrics metrics() { return node_.metrics(); }
  /// The runtime underneath: its G stacks, seed and task lane.
  Node& node() { return node_; }
  net::TcpTransport& transport() { return node_.transport(); }
  net::TcpTransport::Stats transport_stats() const {
    return node_.transport().stats();
  }

 private:
  Node node_;
  std::vector<std::unique_ptr<AtomicBroadcast>> abs_;  // [group]
  std::unique_ptr<smr::ShardedService> service_;

  mutable std::mutex applied_mutex_;
  std::condition_variable applied_cv_;
  std::uint64_t applied_ = 0;
};

}  // namespace ritas
