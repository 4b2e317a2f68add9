#include "ritas/sharded_node.h"

#include <stdexcept>

#include "common/rng.h"
#include "smr/kv_machine.h"

namespace ritas {

namespace {

ShardedNode::Options validate(ShardedNode::Options o) {
  Node::validate("ShardedNode", o);
  if (o.groups == 0) throw std::invalid_argument("ShardedNode: groups == 0");
  return o;
}

}  // namespace

ShardedNode::ShardedNode(Options opts)
    : opts_(validate(std::move(opts))), node_("ShardedNode", opts_) {
  // Same per-(process, group) derivation as sim::ShardedCluster, so a
  // fixed-seed TCP run draws the same per-stack randomness streams.
  std::uint64_t s = node_.seed();
  const std::uint64_t base = splitmix64(s);

  stacks_.reserve(opts_.groups);
  for (GroupId g = 0; g < opts_.groups; ++g) {
    StackConfig cfg = opts_.stack;
    cfg.n = opts_.n;
    cfg.self = opts_.self;
    cfg.group = g;
    const std::uint64_t proc_seed =
        base ^ (0x1000 + opts_.self) ^
        (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL);
    stacks_.push_back(std::make_unique<ProtocolStack>(cfg, node_.transport(),
                                                      node_.keys(), proc_seed));
    mux_.attach(g, *stacks_[g]);
    node_.serve([stack = stacks_[g].get()] { stack->pump(); });
  }

  smr::ShardedService::Config sc;
  sc.shards = opts_.groups;
  sc.key_of = opts_.key_of ? opts_.key_of
                           : [](ByteView op) { return smr::kv_key_of(op); };
  const auto factory =
      opts_.machine_factory
          ? opts_.machine_factory
          : [](smr::ShardId) -> std::unique_ptr<smr::StateMachine> {
              return std::make_unique<smr::KvMachine>();
            };
  service_ = std::make_unique<smr::ShardedService>(sc, factory);

  // AB roots: the SAME root id at every process and every group — the
  // GroupId prefix is the wire-level separator (see sim::ShardedCluster).
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  abs_.reserve(opts_.groups);
  for (GroupId g = 0; g < opts_.groups; ++g) {
    abs_.push_back(std::make_unique<AtomicBroadcast>(
        *stacks_[g], nullptr, ab_root,
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
    // Any thread → the poll thread, which owns every shard's stack; the
    // broadcast and the follow-up pump both run there.
    node_.post([this, shard, command] {
      abs_[shard]->bcast(Bytes(command));
      stacks_[shard]->pump();
    });
  });
}

ShardedNode::~ShardedNode() { stop(); }

void ShardedNode::start() {
  node_.start([this](ProcessId from, Slice frame) {
    mux_.on_packet(from, std::move(frame));
  });
}

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
