// ShardedService — a partitioned keyspace served by G independent RITAS
// groups multiplexed over one shared transport mesh.
//
// Each shard is a full SMR group of its own: its own atomic broadcast
// (one ProtocolStack per (process, group), demultiplexed by GroupMux),
// its own deterministic StateMachine replica, its own exactly-once
// applier. The service is the glue every process runs on top:
//
//   * routing — `shard_of` hash-partitions client operations by routing
//     key (a stable FNV-1a/splitmix hash, identical across processes and
//     platforms; never std::hash). Requests submitted at the wrong shard
//     front are FORWARDED to the owner, never dropped — the `forwarded`
//     counter audits how often clients guessed wrong.
//   * framing — commands carry (client, seq) for exactly-once semantics
//     (ExactlyOnceApplier). One shard is plain single-group SMR.
//   * applying — `on_delivered(shard, bytes)` feeds shard s's decided
//     command stream to shard s's applier. A command whose routing key
//     does NOT belong to the delivering shard (a Byzantine replica
//     broadcast it on the wrong group) is a counted drop
//     (`misrouted_dropped`): every correct replica skips it identically,
//     so per-shard state stays consistent AND the partition invariant
//     (each key lives in exactly one shard) holds.
//
// The service is transport-agnostic: it never touches a stack directly.
// Harnesses (sim::ShardedCluster, ritas::ShardedNode, examples) bind a
// submitter that places a framed command on shard s's atomic broadcast
// and call on_delivered from the per-shard AB deliver callback.
//
// Threading follows the stacks it serves: every harness runs all shards
// on one loop (ShardedNode: the Node's poll thread), so per-shard state
// (machine, applier) is touched by exactly one thread. The service-wide
// tallies (forwarded, misrouted_dropped, applied_total) are atomics so
// application threads may read them; submit/submit_via are safe from any
// thread once bind_submitter's target is (ShardedNode posts to the poll
// thread). No clocks, no unseeded randomness.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "smr/applier.h"
#include "smr/state_machine.h"

namespace ritas::smr {

/// Index of one shard == one consensus group of the sharded deployment.
using ShardId = std::uint32_t;

/// Stable cross-process hash partition: FNV-1a over the key bytes, then a
/// splitmix64 finalizer so low-entropy keys still spread, mod `shards`.
ShardId shard_of_key(ByteView key, std::uint32_t shards);

class ShardedService {
 public:
  /// Places a framed command (u64 client | u64 seq | op) on shard
  /// `shard`'s atomic broadcast.
  using SubmitFn = std::function<void(ShardId shard, const Bytes& command)>;
  /// Extracts the routing key from an encoded operation; nullopt when the
  /// bytes don't parse (the service then hashes the raw bytes so routing
  /// stays deterministic for garbage too).
  using KeyOfFn = std::function<std::optional<std::string>(ByteView op)>;
  /// Builds shard `shard`'s state machine replica (called once per shard).
  using MachineFactory = std::function<std::unique_ptr<StateMachine>(ShardId)>;
  /// Fires on THIS process for every command applied to any local shard.
  using AppliedFn = std::function<void(ShardId shard, std::uint64_t client,
                                       std::uint64_t seq, const Bytes& result)>;

  struct Config {
    std::uint32_t shards = 1;
    /// Routing-key extractor (e.g. kv_key_of). Null => hash the raw op.
    KeyOfFn key_of;
  };

  /// `factory` must yield a deterministic machine per shard; every process
  /// of the deployment must construct identical factories.
  ShardedService(Config cfg, const MachineFactory& factory);

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Wires the outbound half; must be called before the first submit.
  void bind_submitter(SubmitFn fn) { submit_ = std::move(fn); }
  void set_on_applied(AppliedFn fn) { on_applied_ = std::move(fn); }

  std::uint32_t shards() const { return cfg_.shards; }

  /// Owning shard of an encoded operation.
  ShardId shard_of(ByteView op) const;

  /// Routes `op` to its owning shard and submits it there. Returns the
  /// shard that ordered the command.
  ShardId submit(std::uint64_t client, std::uint64_t seq, ByteView op);

  /// Same, for a request that arrived addressed to shard `via` (a client
  /// that guessed the partition). A wrong guess is forwarded to the owner
  /// — counted, never dropped.
  ShardId submit_via(ShardId via, std::uint64_t client, std::uint64_t seq,
                     ByteView op);

  /// Feeds one command decided by shard `shard`'s atomic broadcast, in
  /// that shard's total order. Malformed frames, duplicates and misroutes
  /// are counted skips — Byzantine bytes never throw.
  void on_delivered(ShardId shard, ByteView command);

  // --- per-shard state & stats -------------------------------------------
  const StateMachine& machine(ShardId s) const { return *machines_.at(s); }
  Bytes snapshot(ShardId s) const { return machines_.at(s)->snapshot(); }
  std::uint64_t applied_count(ShardId s) const {
    return appliers_.at(s)->applied_count();
  }
  std::uint64_t duplicates_skipped(ShardId s) const {
    return appliers_.at(s)->duplicates_skipped();
  }
  std::uint64_t malformed_skipped(ShardId s) const {
    return appliers_.at(s)->malformed_skipped();
  }

  // --- service-wide stats --------------------------------------------------
  std::uint64_t applied_total() const;
  /// Requests submitted at a non-owner front and rerouted to the owner.
  std::uint64_t forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }
  /// Delivered commands whose routing key belongs to another shard.
  std::uint64_t misrouted_dropped() const {
    return misrouted_dropped_.load(std::memory_order_relaxed);
  }

 private:
  Config cfg_;
  std::vector<std::unique_ptr<StateMachine>> machines_;
  std::vector<std::unique_ptr<ExactlyOnceApplier>> appliers_;
  SubmitFn submit_;
  AppliedFn on_applied_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> misrouted_dropped_{0};
};

}  // namespace ritas::smr
