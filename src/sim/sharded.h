// Simulated sharded SMR deployment: G independent RITAS groups on one
// shared simulated LAN (the sim twin of the "many groups, one mesh"
// production layout).
//
// Topology per process p:
//
//   SimNetwork host p  ──►  GroupMux p  ──►  ProtocolStack (p, g)   [G of]
//                                             └─ AtomicBroadcast root
//   ShardedService p  ◄── per-group AB deliver callbacks
//
// Every (process, group) pair runs a full stack of its own — own Rng
// (derived deterministic seed), own metrics, own AB root under the same
// InstanceId (the GroupId separates groups on the wire, so identical
// child-seq encodings across groups are fine and intended). All G stacks
// of one process share the host's Transport, so the sim's per-host
// CPU/NIC timelines model the real contention of a shared mesh: groups
// compete for the same NIC, which is exactly what bench_shard_scaling
// measures.
//
// Keys: one KeyChain per process, shared by its G stacks — groups share
// pairwise channels in production, so they share the channel MAC secrets
// too (the GroupId in the authenticated frame keeps cross-group replay
// inert: a frame replayed into another group is a foreign_group drop).
//
// Determinism: same options => bit-identical run. Per-(process, group)
// tracers expose per-GROUP trace bytes, so the oracle/explorer machinery
// and the determinism tests apply to each shard independently (wire-level
// events are host-scoped, not group-scoped, and are deliberately not
// traced here).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/atomic_broadcast.h"
#include "core/group_mux.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "sim/network.h"
#include "sim/oracles.h"
#include "sim/scheduler.h"
#include "smr/sharded_service.h"

namespace ritas::sim {

struct ShardedClusterOptions {
  std::uint32_t n = 4;
  /// Number of consensus groups == shards. Group g serves shard g.
  std::uint32_t groups = 1;
  std::uint64_t seed = 1;
  LanModelConfig lan;
  /// Template for every stack (n/self/group overwritten per instance).
  StackConfig stack;
  /// Per-group AB batching override, indexed by group; groups beyond the
  /// vector (or an empty vector) use `stack.ab_batch`. Independent tuning
  /// per shard is the point: a hot shard batches aggressively, a cold one
  /// stays at the paper's unbatched wire format.
  std::vector<AbBatchConfig> ab_batch_per_group;
  /// Crashed from t=0 (whole host: all G stacks of the process).
  std::vector<ProcessId> crashed;
  /// Byzantine processes: every stack of the process gets an Adversary.
  std::vector<ProcessId> byzantine;
  std::function<std::unique_ptr<Adversary>()> adversary_factory =
      [] { return std::make_unique<PaperByzantineAdversary>(); };
  /// Attach per-(process, group) tracers (virtual-time, deterministic).
  bool trace = false;
  /// Service plumbing; defaults to the KV machine and its key extractor.
  smr::ShardedService::MachineFactory machine_factory;  // null => KvMachine
  smr::ShardedService::KeyOfFn key_of;                  // null => kv_key_of
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions opts);
  ~ShardedCluster();

  std::uint32_t n() const { return opts_.n; }
  std::uint32_t groups() const { return opts_.groups; }
  Scheduler& scheduler() { return sched_; }
  SimNetwork& network() { return *net_; }
  Time now() const { return sched_.now(); }

  ProtocolStack& stack(ProcessId p, GroupId g) { return *stacks_[p][g]; }
  GroupMux& mux(ProcessId p) { return *muxes_[p]; }
  smr::ShardedService& service(ProcessId p) { return *services_[p]; }

  bool crashed(ProcessId p) const { return net_->crashed(p); }
  bool correct(ProcessId p) const {
    return !crashed(p) && adversaries_[p] == nullptr;
  }
  std::vector<ProcessId> correct_set() const;

  /// Submits a client op through process `via`'s service front (routes to
  /// the owning shard's atomic broadcast at that process). Returns the
  /// owning shard.
  smr::ShardId submit(ProcessId via, std::uint64_t client, std::uint64_t seq,
                      ByteView op);
  /// Same, for a client that guessed shard `guess` — a wrong guess is
  /// forwarded (service.forwarded() counts it), never dropped.
  smr::ShardId submit_via(ProcessId via, smr::ShardId guess,
                          std::uint64_t client, std::uint64_t seq, ByteView op);

  /// Seals every open AB batch at every live stack (no-op unbatched).
  void flush_all();

  /// Runs the simulation until `done` or `deadline`; true iff done.
  bool run_until(const std::function<bool()>& done, Time deadline);

  /// True when every correct process applied >= `count` commands in total
  /// across its shards (the usual run_until predicate).
  bool all_applied_at_least(std::uint64_t count) const;

  // --- per-group observations (oracle inputs) ----------------------------
  /// Group g's AB sends (each framed command submit() broadcast, batched
  /// or not) and deliveries at every process; judge with .check().
  const oracle::AbRecorder& ab(GroupId g) const { return ab_[g]; }

  /// Sum of stack metrics over group g's live stacks.
  Metrics group_metrics(GroupId g) const;
  /// Sum over all groups and live processes.
  Metrics total_metrics() const;

  /// Deterministic binary trace of group g only (processes concatenated in
  /// pid order) — per-shard bit-identical across same-seed runs.
  Bytes group_trace_bytes(GroupId g) const;

 private:
  ShardedClusterOptions opts_;
  Scheduler sched_;
  std::unique_ptr<SimNetwork> net_;
  std::vector<KeyChain> keys_;
  std::vector<std::unique_ptr<Adversary>> adversaries_;
  std::vector<std::unique_ptr<GroupMux>> muxes_;
  // stacks_[p][g], abs_[p][g], tracers_[p][g] (tracers empty when !trace).
  // Tracers are declared BEFORE the stacks that point at them: teardown
  // runs in reverse, and a dying stack still records teardown events.
  std::vector<std::vector<std::unique_ptr<Tracer>>> tracers_;
  std::vector<std::vector<std::unique_ptr<ProtocolStack>>> stacks_;
  std::vector<std::vector<std::unique_ptr<AtomicBroadcast>>> abs_;
  std::vector<std::unique_ptr<smr::ShardedService>> services_;
  std::vector<oracle::AbRecorder> ab_;  // per group
};

}  // namespace ritas::sim
