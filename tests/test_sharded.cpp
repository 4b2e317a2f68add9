// Sharded multi-group SMR over one shared mesh: partition correctness,
// per-shard linearizable total order (the AB oracles applied per group),
// request forwarding, foreign-group containment, per-shard determinism,
// and the usual crash/Byzantine faultloads.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim_helpers.h"
#include "smr/kv_machine.h"

namespace ritas::sim {
namespace {

using smr::KvCommand;
using smr::ShardId;
using smr::shard_of_key;
using test::kDeadline;

Bytes set_cmd(const std::string& key, const std::string& value) {
  KvCommand c;
  c.op = KvCommand::Op::kSet;
  c.key = key;
  c.value = value;
  return c.encode();
}

ShardedClusterOptions fast_sharded(std::uint32_t n, std::uint32_t groups,
                                   std::uint64_t seed) {
  ShardedClusterOptions o;
  o.n = n;
  o.groups = groups;
  o.seed = seed;
  o.lan.cpu_send_ns = 5'000;
  o.lan.cpu_recv_ns = 5'000;
  o.lan.switch_latency_ns = 10'000;
  o.lan.jitter_ns = 40'000;
  return o;
}

ByteView key_view(const std::string& k) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(k.data()), k.size());
}

TEST(Sharded, StableHashPartitionsEveryKeyToExactlyOneShard) {
  // Placement is protocol state: it must not depend on process, platform
  // or standard library. Same key => same shard, every shard reachable.
  std::set<ShardId> hit;
  for (int i = 0; i < 64; ++i) {
    const std::string k = "key:" + std::to_string(i);
    const ShardId s = shard_of_key(key_view(k), 8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, shard_of_key(key_view(k), 8));  // stable
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 8u) << "64 keys should reach all 8 shards";
  EXPECT_EQ(shard_of_key(key_view("anything"), 1), 0u);
}

TEST(Sharded, ShardsConvergePartitionHoldsAndPerShardOrderIsLinearizable) {
  ShardedCluster c(fast_sharded(4, 4, 11));
  // 24 distinct keys submitted through rotating fronts.
  std::vector<std::string> keys;
  for (int i = 0; i < 24; ++i) keys.push_back("user:" + std::to_string(i));
  std::uint64_t seq = 0;
  for (const auto& k : keys) {
    c.submit(static_cast<ProcessId>(seq % 4), /*client=*/1, seq,
             set_cmd(k, "v-" + k));
    ++seq;
  }
  ASSERT_TRUE(
      c.run_until([&] { return c.all_applied_at_least(keys.size()); },
                  kDeadline));
  c.scheduler().run();  // quiesce the agreement tails

  // Per-shard replica consistency + the partition invariant: every key
  // lives in exactly the shard its hash names, at every process.
  for (GroupId g = 0; g < c.groups(); ++g) {
    for (ProcessId p = 0; p < c.n(); ++p) {
      EXPECT_EQ(c.service(p).snapshot(g), c.service(0).snapshot(g))
          << "shard " << g << " diverged at p" << p;
    }
  }
  for (const auto& k : keys) {
    const ShardId owner = shard_of_key(key_view(k), c.groups());
    for (GroupId g = 0; g < c.groups(); ++g) {
      const std::string snap = to_string(c.service(0).snapshot(g));
      EXPECT_EQ(snap.find(k + "=") != std::string::npos, g == owner)
          << "key " << k << " in shard " << g << ", owner " << owner;
    }
  }

  // The per-shard linearizability oracle: each group independently passes
  // the full AB safety set (total order, no-dup, no-creation, validity).
  const auto correct = c.correct_set();
  for (GroupId g = 0; g < c.groups(); ++g) {
    oracle::Report r;
    c.ab(g).check(r, correct);
    EXPECT_TRUE(r.ok()) << "shard " << g << ":\n" << r.text();
  }
}

TEST(Sharded, WrongShardRequestIsForwardedNotDropped) {
  ShardedCluster c(fast_sharded(4, 4, 12));
  const Bytes cmd = set_cmd("routed-key", "val");
  const ShardId owner = c.service(0).shard_of(cmd);
  const ShardId wrong = (owner + 1) % c.groups();
  // A client that guessed the partition wrong: the front forwards to the
  // owner's group instead of rejecting.
  const ShardId decided = c.submit_via(/*via=*/1, wrong, 7, 1, cmd);
  EXPECT_EQ(decided, owner);
  EXPECT_EQ(c.service(1).forwarded(), 1u);
  // A correct guess is not counted.
  c.submit_via(/*via=*/1, owner, 7, 2, set_cmd("routed-key", "val2"));
  EXPECT_EQ(c.service(1).forwarded(), 1u);
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(2); }, kDeadline));
  for (ProcessId p = 0; p < c.n(); ++p) {
    EXPECT_EQ(c.service(p).applied_count(owner), 2u);
    EXPECT_EQ(c.service(p).misrouted_dropped(), 0u);
    EXPECT_NE(to_string(c.service(p).snapshot(owner)).find("routed-key=val2"),
              std::string::npos);
  }
}

TEST(Sharded, ForeignGroupFrameIsCountedDropNeverThrow) {
  ShardedCluster c(fast_sharded(4, 2, 13));

  // A Byzantine peer stamps a group this process does not run. Through
  // the mux: routed nowhere, counted, no throw.
  Message alien;
  alien.group = 99;
  alien.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  alien.tag = 0;
  const Buffer alien_frame = alien.encode();
  EXPECT_NO_THROW(c.mux(0).on_packet(/*from=*/1, Slice(alien_frame)));
  EXPECT_EQ(c.mux(0).foreign_dropped(), 1u);

  // Bypassing the mux (a misconfigured direct feed): the stack itself
  // counts the foreign frame and survives.
  EXPECT_NO_THROW(c.stack(0, 0).on_packet(/*from=*/1, Slice(alien_frame)));
  EXPECT_EQ(c.stack(0, 0).metrics().foreign_group_dropped, 1u);

  // Cross-group replay: a frame group 1 really sent, replayed into group
  // 0's stack, is foreign there — the GroupId keeps groups inert to each
  // other even though they share channels and keys.
  Message other;
  other.group = 1;
  other.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  other.tag = 0;
  EXPECT_NO_THROW(c.stack(0, 0).on_packet(/*from=*/2, Slice(other.encode())));
  EXPECT_EQ(c.stack(0, 0).metrics().foreign_group_dropped, 2u);

  // Unreadable prefix at the mux: malformed, not foreign.
  EXPECT_NO_THROW(c.mux(0).on_packet(/*from=*/1, Slice(Bytes{2, 7})));
  EXPECT_EQ(c.mux(0).malformed_dropped(), 1u);

  // Liveness after the garbage: the legitimate workload still commits.
  c.submit(0, 1, 1, set_cmd("after", "ok"));
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(1); }, kDeadline));
}

TEST(Sharded, MisroutedCommandIsCountedDropAtEveryReplica) {
  ShardedCluster c(fast_sharded(4, 4, 14));
  // A Byzantine replica broadcasts a well-formed command on the WRONG
  // group (the service-level twin of the foreign-group frame). Emulate
  // the delivery at one replica's service: the partition audit drops it
  // deterministically instead of letting the key leak into two shards.
  const Bytes cmd = set_cmd("leak-attempt", "evil");
  const ShardId owner = c.service(0).shard_of(cmd);
  const ShardId wrong = (owner + 1) % c.groups();
  const Bytes framed = smr::ExactlyOnceApplier::encode_command(66, 1, cmd);
  EXPECT_NO_THROW(c.service(2).on_delivered(wrong, framed));
  EXPECT_EQ(c.service(2).misrouted_dropped(), 1u);
  EXPECT_EQ(c.service(2).applied_count(wrong), 0u);
  EXPECT_EQ(to_string(c.service(2).snapshot(wrong)).find("leak-attempt"),
            std::string::npos);
  // Delivered on the owning shard, the same command applies normally.
  EXPECT_NO_THROW(c.service(2).on_delivered(owner, framed));
  EXPECT_EQ(c.service(2).applied_count(owner), 1u);
}

TEST(Sharded, ExactlyOnceAcrossFrontsAndShards) {
  ShardedCluster c(fast_sharded(4, 2, 15));
  const Bytes cmd = set_cmd("acct:1", "100");
  const ShardId owner = c.service(0).shard_of(cmd);
  // The same (client, seq) pushed through three different fronts.
  c.submit(0, 9, 1, cmd);
  c.submit(1, 9, 1, cmd);
  c.submit(3, 9, 1, cmd);
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(1); }, kDeadline));
  c.scheduler().run();
  for (ProcessId p = 0; p < c.n(); ++p) {
    EXPECT_EQ(c.service(p).applied_count(owner), 1u) << "p" << p;
    EXPECT_EQ(c.service(p).duplicates_skipped(owner), 2u) << "p" << p;
  }
}

TEST(Sharded, PerShardRunsAreBitIdenticalAcrossSameSeedRuns) {
  // Same seed => bit-identical per-group traces AND identical per-shard
  // state, so the oracle/explorer machinery applies to each shard alone.
  auto run = [](std::uint64_t seed) {
    ShardedClusterOptions o = fast_sharded(4, 2, seed);
    o.trace = true;
    ShardedCluster c(o);
    std::uint64_t seq = 0;
    for (int i = 0; i < 8; ++i) {
      c.submit(static_cast<ProcessId>(i % 4), 1, seq++,
               set_cmd("k" + std::to_string(i), "v"));
    }
    c.run_until([&] { return c.all_applied_at_least(8); }, kDeadline);
    c.scheduler().run();
    std::vector<Bytes> traces;
    std::vector<Bytes> snaps;
    for (GroupId g = 0; g < c.groups(); ++g) {
      traces.push_back(c.group_trace_bytes(g));
      snaps.push_back(c.service(0).snapshot(g));
    }
    return std::make_pair(traces, snaps);
  };
  const auto [t1, s1] = run(77);
  const auto [t2, s2] = run(77);
  const auto [t3, s3] = run(78);
  for (GroupId g = 0; g < 2; ++g) {
    EXPECT_FALSE(t1[g].empty());
    EXPECT_EQ(t1[g], t2[g]) << "group " << g << " trace not reproducible";
  }
  EXPECT_EQ(s1, s2);
  EXPECT_NE(t1, t3) << "different seed should schedule differently";
}

TEST(Sharded, ConsistentUnderCrashFault) {
  ShardedClusterOptions o = fast_sharded(4, 2, 16);
  o.crashed = {3};
  ShardedCluster c(o);
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    c.submit(static_cast<ProcessId>(i % 3), 1, seq++,
             set_cmd("c" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(8); }, kDeadline));
  for (ProcessId p : c.correct_set()) {
    for (GroupId g = 0; g < c.groups(); ++g) {
      EXPECT_EQ(c.service(p).snapshot(g), c.service(0).snapshot(g));
    }
  }
}

TEST(Sharded, ConsistentUnderByzantineReplica) {
  ShardedClusterOptions o = fast_sharded(4, 2, 17);
  o.byzantine = {2};
  ShardedCluster c(o);
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    // Includes the attacker as a front: its stacks still forward.
    c.submit(static_cast<ProcessId>(i % 4), 1, seq++,
             set_cmd("b" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(8); }, kDeadline));
  const auto correct = c.correct_set();
  for (ProcessId p : correct) {
    for (GroupId g = 0; g < c.groups(); ++g) {
      EXPECT_EQ(c.service(p).snapshot(g), c.service(correct.front()).snapshot(g));
    }
  }
}

TEST(Sharded, PerGroupBatchingIsIndependentlyTunable) {
  ShardedClusterOptions o = fast_sharded(4, 2, 18);
  // Group 0 batches aggressively, group 1 runs the paper's unbatched wire
  // format — a hot shard and a cold one on the same mesh.
  AbBatchConfig batched;
  batched.enabled = true;
  batched.max_batch_msgs = 8;
  batched.max_batch_bytes = 4096;
  o.ab_batch_per_group = {batched, AbBatchConfig{}};
  ShardedCluster c(o);
  std::uint64_t seq = 0;
  for (int i = 0; i < 16; ++i) {
    c.submit(static_cast<ProcessId>(i % 4), 1, seq++,
             set_cmd("t" + std::to_string(i), "v"));
  }
  c.flush_all();
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(16); }, kDeadline));
  c.scheduler().run();
  EXPECT_GT(c.group_metrics(0).ab_batches_sealed, 0u);
  EXPECT_EQ(c.group_metrics(1).ab_batches_sealed, 0u);
  for (ProcessId p = 0; p < c.n(); ++p) {
    for (GroupId g = 0; g < c.groups(); ++g) {
      EXPECT_EQ(c.service(p).snapshot(g), c.service(0).snapshot(g));
    }
  }
  // The batched and the unbatched group both pass the full AB safety set.
  for (GroupId g = 0; g < c.groups(); ++g) {
    EXPECT_FALSE(c.ab(g).sent().empty()) << "shard " << g;
    oracle::Report r;
    c.ab(g).check(r, c.correct_set());
    EXPECT_TRUE(r.ok()) << "shard " << g << ":\n" << r.text();
  }
}

TEST(Sharded, SingleGroupMatchesPlainClusterSeedDerivation) {
  // G=1 is the degenerate deployment: group 0, legacy wire format, and
  // the same per-process seed derivation as the plain Cluster — so every
  // existing calibration stays valid for unsharded runs.
  ShardedCluster sc(fast_sharded(4, 1, 19));
  test::Cluster pc(test::fast_lan(4, 19));
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(sc.stack(p, 0).group(), 0u);
  }
  sc.submit(0, 1, 1, set_cmd("solo", "x"));
  ASSERT_TRUE(sc.run_until([&] { return sc.all_applied_at_least(1); },
                           kDeadline));
  EXPECT_EQ(to_string(sc.service(2).snapshot(0)), "solo=x;");
}

}  // namespace
}  // namespace ritas::sim
