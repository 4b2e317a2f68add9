#include "ritas/sharded_node.h"

#include <stdexcept>

#include "smr/kv_machine.h"

namespace ritas {

ShardedNode::ShardedNode(Options opts)
    : node_("ShardedNode", opts, opts.groups) {
  const std::uint32_t groups = node_.groups();
  service_ = std::make_unique<smr::ShardedService>(
      smr::ShardedService::Config{.shards = groups,
                                  .key_of = smr::kv_key_of},
      [](smr::ShardId) { return std::make_unique<smr::KvMachine>(); });

  // AB roots: the SAME root id at every process and every group — the
  // GroupId prefix is the wire-level separator.
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  abs_.reserve(groups);
  for (GroupId g = 0; g < groups; ++g) {
    abs_.push_back(std::make_unique<AtomicBroadcast>(
        node_.stack(g), nullptr, ab_root,
        [this, g](ProcessId /*origin*/, std::uint64_t /*rbid*/, Slice payload) {
          service_->on_delivered(g, payload.view());
        }));
  }
  service_->set_on_applied([this](smr::ShardId, std::uint64_t, std::uint64_t,
                                  const Bytes&) {
    {
      std::lock_guard<std::mutex> lock(applied_mutex_);
      ++applied_;
    }
    applied_cv_.notify_all();
  });
  service_->bind_submitter([this](smr::ShardId shard, const Bytes& command) {
    // Any thread → the poll thread, which owns every shard's stack and
    // pumps them all once the task has run.
    node_.post([this, shard, command] { abs_[shard]->bcast(Bytes(command)); });
  });
}

ShardedNode::~ShardedNode() { stop(); }

void ShardedNode::start() { node_.start(); }

void ShardedNode::stop() { node_.stop(); }

smr::ShardId ShardedNode::submit(std::uint64_t client, std::uint64_t seq,
                                 ByteView op) {
  if (!node_.running()) throw std::logic_error("ShardedNode: not started");
  return service_->submit(client, seq, op);
}

std::uint64_t ShardedNode::applied_total() const {
  std::lock_guard<std::mutex> lock(applied_mutex_);
  return applied_;
}

bool ShardedNode::wait_applied_at_least(std::uint64_t count,
                                        std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(applied_mutex_);
  return applied_cv_.wait_for(lock, timeout,
                              [&] { return applied_ >= count; });
}

}  // namespace ritas
