// Simulated sharded SMR deployment: the SMR layer on a G-group Cluster
// (the sim twin of ritas::ShardedNode).
//
// The Cluster runs G stacks per process behind one GroupMux on the shared
// simulated LAN (sim/cluster.h); group g serves shard g. This layer adds,
// per process, one AtomicBroadcast root per group feeding one KV
// ShardedService, and per group an AbRecorder of every command broadcast
// and delivered, so each shard is judged by the AB oracles on its own.
// Every group's root has the same InstanceId: the GroupId separates the
// groups on the wire.
#pragma once

#include <memory>
#include <vector>

#include "core/atomic_broadcast.h"
#include "sim/cluster.h"
#include "sim/oracles.h"
#include "smr/sharded_service.h"

namespace ritas::sim {

class ShardedCluster : public Cluster {
 public:
  explicit ShardedCluster(ClusterOptions opts);
  ~ShardedCluster();

  smr::ShardedService& service(ProcessId p) { return *services_[p]; }

  /// Submits a client op through process `via`'s service front (routes to
  /// the owning shard's atomic broadcast at that process). Returns the
  /// owning shard.
  smr::ShardId submit(ProcessId via, std::uint64_t client, std::uint64_t seq,
                      ByteView op);

  /// Seals every open AB batch at every live stack (no-op unbatched).
  void flush_all();

  /// True when every correct process applied >= `count` commands in total
  /// across its shards (the usual run_until predicate).
  bool all_applied_at_least(std::uint64_t count) const;

  /// Group g's AB sends (each framed command submit() broadcast, batched
  /// or not) and deliveries at every process; judge with .check().
  const oracle::AbRecorder& ab(GroupId g) const { return ab_[g]; }

 private:
  std::vector<std::unique_ptr<smr::ShardedService>> services_;
  std::vector<oracle::AbRecorder> ab_;  // [group]
  // abs_[p][g]; empty for a process crashed from t=0.
  std::vector<std::vector<std::unique_ptr<AtomicBroadcast>>> abs_;
};

}  // namespace ritas::sim
