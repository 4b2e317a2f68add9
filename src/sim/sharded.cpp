#include "sim/sharded.h"

#include <stdexcept>

#include "smr/kv_machine.h"

namespace ritas::sim {

ShardedCluster::ShardedCluster(ClusterOptions opts)
    : Cluster(std::move(opts)) {
  for (ProcessId p = 0; p < n(); ++p) {
    services_.push_back(std::make_unique<smr::ShardedService>(
        smr::ShardedService::Config{.shards = groups(),
                                    .key_of = smr::kv_key_of},
        [](smr::ShardId) { return std::make_unique<smr::KvMachine>(); }));
  }
  for (GroupId g = 0; g < groups(); ++g) {
    ab_.emplace_back(n(), stack(0, g).config().ab_batch.enabled);
  }

  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  abs_.resize(n());
  for (ProcessId p = 0; p < n(); ++p) {
    if (crashed(p)) continue;  // crashed from t=0: no roots, no submitter
    for (GroupId g = 0; g < groups(); ++g) {
      abs_[p].push_back(std::make_unique<AtomicBroadcast>(
          stack(p, g), nullptr, ab_root,
          [this, p, g](ProcessId origin, std::uint64_t rbid, Slice payload) {
            ab_[g].delivered(p, origin, rbid, payload.to_bytes());
            services_[p]->on_delivered(g, payload.view());
          }));
      stack(p, g).pump();
    }
    services_[p]->bind_submitter([this, p](smr::ShardId shard,
                                           const Bytes& command) {
      ab_[shard].sent(p, abs_[p][shard]->bcast(Bytes(command)), command);
      stack(p, shard).pump();
    });
  }
}

ShardedCluster::~ShardedCluster() = default;

smr::ShardId ShardedCluster::submit(ProcessId via, std::uint64_t client,
                                    std::uint64_t seq, ByteView op) {
  if (via >= n() || crashed(via)) {
    throw std::invalid_argument("submit: bad via process");
  }
  return services_[via]->submit(client, seq, op);
}

void ShardedCluster::flush_all() {
  for (ProcessId p = 0; p < n(); ++p) {
    for (GroupId g = 0; g < abs_[p].size(); ++g) {
      abs_[p][g]->flush();
      stack(p, g).pump();
    }
  }
}

bool ShardedCluster::all_applied_at_least(std::uint64_t count) const {
  for (ProcessId p = 0; p < n(); ++p) {
    if (correct(p) && services_[p]->applied_total() < count) return false;
  }
  return true;
}

}  // namespace ritas::sim
