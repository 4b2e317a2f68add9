// State machine replication over the stack: exactly-once application,
// cross-replica consistency under every faultload, deterministic results.
// Single-group SMR is a ShardedService with one shard fed by one atomic
// broadcast per replica.
#include "smr/sharded_service.h"

#include <gtest/gtest.h>

#include <map>

#include "common/serialize.h"
#include "core/atomic_broadcast.h"
#include "sim_helpers.h"

namespace ritas::smr {
namespace {

using test::Cluster;
using test::fast_lan;
using test::kDeadline;

/// Deterministic counter machine: "add <u64>" / "get".
class CounterMachine final : public StateMachine {
 public:
  Bytes apply(ByteView command) override {
    Reader r(command);
    const std::uint8_t op = r.u8();
    if (op == 0) {  // add
      value_ += r.u64();
    }
    if (!r.ok()) return to_bytes("err");
    Writer w;
    w.u64(value_);
    return std::move(w).take();
  }
  Bytes snapshot() const override {
    Writer w;
    w.u64(value_);
    return std::move(w).take();
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

Bytes add_cmd(std::uint64_t x) {
  Writer w;
  w.u8(0);
  w.u64(x);
  return std::move(w).take();
}

struct Fixture {
  std::vector<CounterMachine*> machines;  // owned by the replicas
  std::vector<std::unique_ptr<ShardedService>> replicas;
  std::vector<std::unique_ptr<AtomicBroadcast>> abs;

  Fixture(Cluster& c) {
    const InstanceId id = InstanceId::root(ProtocolType::kAtomicBroadcast, 7);
    machines.resize(c.n());
    replicas.resize(c.n());
    abs.resize(c.n());
    for (ProcessId p : c.live()) {
      replicas[p] = std::make_unique<ShardedService>(
          ShardedService::Config{},
          [this, p](ShardId) -> std::unique_ptr<StateMachine> {
            auto m = std::make_unique<CounterMachine>();
            machines[p] = m.get();
            return m;
          });
      ShardedService& svc = *replicas[p];
      abs[p] = std::make_unique<AtomicBroadcast>(
          c.stack(p), nullptr, id,
          [&svc](ProcessId, std::uint64_t, Slice payload) {
            svc.on_delivered(0, payload.view());
          });
      svc.bind_submitter([ab = abs[p].get()](ShardId, const Bytes& command) {
        ab->bcast(Bytes(command));
      });
      c.stack(p).pump();
    }
  }
  bool all_applied(Cluster& c, std::uint64_t k) const {
    for (ProcessId p : c.correct_set()) {
      if (replicas[p]->applied_total() < k) return false;
    }
    return true;
  }
};

TEST(Smr, ReplicasConvergeToSameState) {
  Cluster c(fast_lan(4, 1));
  Fixture f(c);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    const ProcessId via = static_cast<ProcessId>(i % 4);
    c.call(via, [&, i] { f.replicas[via]->submit(/*client=*/1, i, add_cmd(i)); });
  }
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 8); }, kDeadline));
  // 1+2+...+8 = 36, identical everywhere.
  for (ProcessId p : c.live()) {
    EXPECT_EQ(f.machines[p]->value(), 36u);
    EXPECT_EQ(f.machines[p]->snapshot(), f.machines[0]->snapshot());
  }
}

TEST(Smr, DuplicateSubmissionsApplyOnce) {
  Cluster c(fast_lan(4, 2));
  Fixture f(c);
  // The same request (client 9, seq 1) retried through THREE replicas.
  for (ProcessId via : {0u, 1u, 2u}) {
    c.call(via, [&, via] { f.replicas[via]->submit(9, 1, add_cmd(100)); });
  }
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 1); }, kDeadline));
  c.run_all();
  for (ProcessId p : c.live()) {
    EXPECT_EQ(f.machines[p]->value(), 100u) << "applied more than once at p" << p;
    EXPECT_EQ(f.replicas[p]->duplicates_skipped(0), 2u);
  }
}

TEST(Smr, ResultsReportedToSubmittingReplica) {
  Cluster c(fast_lan(4, 3));
  Fixture f(c);
  std::map<std::uint64_t, std::uint64_t> results;  // seq -> counter value
  f.replicas[0]->set_on_applied(
      [&results](ShardId, std::uint64_t, std::uint64_t seq, const Bytes& result) {
        Reader r(result);
        results[seq] = r.u64();
      });
  c.call(0, [&] {
    f.replicas[0]->submit(5, 1, add_cmd(10));
    f.replicas[0]->submit(5, 2, add_cmd(20));
  });
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 2); }, kDeadline));
  EXPECT_EQ(results[1], 10u);
  EXPECT_EQ(results[2], 30u);
}

TEST(Smr, ConsistentUnderByzantineReplica) {
  test::ClusterOptions o = fast_lan(4, 4);
  o.byzantine = {2};
  Cluster c(o);
  Fixture f(c);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const ProcessId via = static_cast<ProcessId>(i % 4);  // includes the attacker
    c.call(via, [&, via, i] { f.replicas[via]->submit(1, i, add_cmd(i)); });
  }
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 6); }, kDeadline));
  for (ProcessId p : c.correct_set()) {
    EXPECT_EQ(f.machines[p]->value(), 21u);
  }
}

TEST(Smr, ConsistentUnderCrash) {
  test::ClusterOptions o = fast_lan(4, 5);
  o.crashed = {3};
  Cluster c(o);
  Fixture f(c);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const ProcessId via = static_cast<ProcessId>(i % 3);
    c.call(via, [&, via, i] { f.replicas[via]->submit(1, i, add_cmd(1)); });
  }
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 6); }, kDeadline));
  for (ProcessId p : c.correct_set()) {
    EXPECT_EQ(f.machines[p]->value(), 6u);
  }
}

TEST(Smr, JunkOperationHandledDeterministically) {
  Cluster c(fast_lan(4, 6));
  Fixture f(c);
  // A buggy or Byzantine client submits an operation the machine cannot
  // parse; every replica applies the same deterministic "err" no-op and
  // states stay equal.
  c.call(1, [&] { f.replicas[1]->submit(4, 1, to_bytes("junk-op")); });
  c.call(0, [&] { f.replicas[0]->submit(4, 2, add_cmd(5)); });
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 2); }, kDeadline));
  for (ProcessId p : c.live()) {
    EXPECT_EQ(f.machines[p]->value(), 5u);
    EXPECT_EQ(f.machines[p]->snapshot(), f.machines[0]->snapshot());
  }
}

TEST(Smr, InterleavedClientsKeepPerClientExactlyOnce) {
  Cluster c(fast_lan(4, 7));
  Fixture f(c);
  // Three clients, interleaved seqs, some duplicated through two replicas.
  for (std::uint64_t client : {10u, 20u, 30u}) {
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      const ProcessId via = static_cast<ProcessId>((client + seq) % 4);
      c.call(via, [&, via, client, seq] {
        f.replicas[via]->submit(client, seq, add_cmd(client + seq));
      });
      if (seq % 2 == 0) {  // duplicate the even ones elsewhere
        const ProcessId via2 = static_cast<ProcessId>((via + 1) % 4);
        c.call(via2, [&, via2, client, seq] {
          f.replicas[via2]->submit(client, seq, add_cmd(client + seq));
        });
      }
    }
  }
  // 12 unique commands; sum = sum over clients of (4*client + 10).
  const std::uint64_t expected = (4 * 10 + 10) + (4 * 20 + 10) + (4 * 30 + 10);
  ASSERT_TRUE(c.run_until([&] { return f.all_applied(c, 12); }, kDeadline));
  c.run_all();
  for (ProcessId p : c.live()) {
    EXPECT_EQ(f.machines[p]->value(), expected);
    EXPECT_EQ(f.replicas[p]->applied_count(0), 12u);
  }
}

}  // namespace
}  // namespace ritas::smr
