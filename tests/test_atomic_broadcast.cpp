// Atomic broadcast: validity, agreement, total order, bursts, all three of
// the paper's faultloads, identifier encodings, and garbage collection.
#include "core/atomic_broadcast.h"

#include <gtest/gtest.h>

#include "core/reliable_broadcast.h"
#include "sim_helpers.h"

namespace ritas {
namespace {

using test::AbGroup;
using test::Cluster;
using test::fast_lan;
using test::kDeadline;

TEST(AtomicBroadcast, SingleMessageDeliveredEverywhere) {
  Cluster c(fast_lan(4, 1));
  AbGroup g(c);
  g.send(0, to_bytes("solo"));
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 1); }, kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, TotalOrderWithConcurrentSenders) {
  Cluster c(fast_lan(4, 2));
  AbGroup g(c);
  const std::size_t kPer = 5;
  for (std::size_t i = 0; i < kPer; ++i) {
    for (ProcessId p : c.live()) {
      g.send(p, to_bytes("m" + std::to_string(p) + "-" + std::to_string(i)));
    }
  }
  const std::size_t total = kPer * 4;
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), total); },
                          kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, FailStopFaultload) {
  test::ClusterOptions o = fast_lan(4, 3);
  o.crashed = {1};
  Cluster c(o);
  AbGroup g(c);
  for (int i = 0; i < 4; ++i) {
    for (ProcessId p : c.live()) g.send(p, to_bytes("x"));
  }
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 12); }, kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, PaperByzantineFaultload) {
  // §4.2: one process attacks the BC and MVC layers while still sending its
  // burst share. Correct processes must deliver everything in total order.
  test::ClusterOptions o = fast_lan(4, 4);
  o.byzantine = {2};
  Cluster c(o);
  AbGroup g(c);
  for (int i = 0; i < 4; ++i) {
    for (ProcessId p : c.live()) {
      g.send(p, to_bytes("b" + std::to_string(p) + std::to_string(i)));
    }
  }
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.correct_set(), 16); },
                          kDeadline));
  const auto r = g.check(c.correct_set());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, BurstFromOneSender) {
  Cluster c(fast_lan(4, 5));
  AbGroup g(c);
  const std::size_t kBurst = 50;
  c.call(0, [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      g.bcast(0, to_bytes("burst-" + std::to_string(i)));
    }
  });
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), kBurst); },
                          kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
  // Per-origin FIFO: rbids from one origin are delivered in order (the
  // deterministic (origin, rbid) per-round order guarantees it here).
  for (ProcessId p : c.live()) {
    std::uint64_t last = 0;
    bool first = true;
    for (const auto& e : g.log(p)) {
      if (!first) {
        EXPECT_GT(e.rbid, last);
      }
      last = e.rbid;
      first = false;
    }
  }
}

TEST(AtomicBroadcast, AgreementCostDropsWithBurstSize) {
  // Figure 7's mechanism: bigger bursts amortize the agreement broadcasts.
  auto ratio_for = [](std::size_t burst) {
    Cluster c(fast_lan(4, 77));
    AbGroup g(c);
    c.call(0, [&] {
      for (std::size_t i = 0; i < burst; ++i) g.bcast(0, to_bytes("z"));
    });
    c.run_until([&] { return g.everyone_has(c.live(), burst); }, kDeadline);
    const Metrics m = c.total_metrics();
    return static_cast<double>(m.broadcasts_agreement()) /
           static_cast<double>(m.broadcasts_total());
  };
  const double small = ratio_for(2);
  const double large = ratio_for(200);
  EXPECT_GT(small, large);
  EXPECT_GT(small, 0.5);
  EXPECT_LT(large, 0.4);
}

TEST(AtomicBroadcast, JitterManySeeds) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    test::ClusterOptions o = fast_lan(4, 200 + seed);
    o.lan.jitter_ns = 300'000;
    Cluster c(o);
    AbGroup g(c);
    for (int i = 0; i < 3; ++i) {
      for (ProcessId p : c.live()) g.send(p, to_bytes("j"));
    }
    ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 12); }, kDeadline))
        << "seed " << seed;
    const auto r = g.check(c.live());
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.text();
  }
}

TEST(AtomicBroadcast, GarbageCollectionBoundsInstanceCount) {
  Cluster c(fast_lan(4, 6));
  AbGroup g(c);
  const std::size_t kBurst = 40;
  c.call(0, [&] {
    for (std::size_t i = 0; i < kBurst; ++i) g.bcast(0, to_bytes("gc"));
  });
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), kBurst); },
                          kDeadline));
  c.run_all();
  // Delivered AB_MSG reliable broadcasts must have been freed (agreement
  // rounds within the GC grace window legitimately stay alive).
  const InstanceId ab_id = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  std::size_t leftover_msg_rbs = 0;
  for (const auto& e : g.log(0)) {
    const InstanceId path = ab_id.child(
        {ProtocolType::kReliableBroadcast, AtomicBroadcast::msg_seq(e.origin, e.rbid)});
    if (c.stack(0).has_instance(path)) ++leftover_msg_rbs;
  }
  EXPECT_EQ(leftover_msg_rbs, 0u);
}

TEST(AtomicBroadcast, DeliveredIdentifiersCollapseIntoWatermarks) {
  // 2000 unbatched messages: once quiet, each process keeps a per-origin
  // floor, not one set entry per delivered identifier.
  constexpr std::size_t kPer = 500;
  Cluster c(fast_lan(4, 31));
  AbGroup g(c);
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] {
      for (std::size_t i = 0; i < kPer; ++i) g.bcast(p, to_bytes("w"));
    });
  }
  const std::size_t total = kPer * 4;
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), total); },
                          kDeadline));
  c.run_all();
  for (ProcessId p : c.live()) {
    EXPECT_LE(g.at(p).tracked_ids(), c.n()) << "process " << p;
  }

  // A late ECHO for a delivered and collected identifier is still refused:
  // counted as unroutable, no instance created, nothing parked.
  const InstanceId path =
      InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
          .child({ProtocolType::kReliableBroadcast,
                   AtomicBroadcast::msg_seq(/*origin=*/1, /*rbid=*/3)});
  ProtocolStack& s = c.stack(0);
  ASSERT_FALSE(s.has_instance(path));
  const std::uint64_t dropped = s.metrics().unroutable_dropped;
  Message late;
  late.path = path;
  late.tag = ReliableBroadcast::kEcho;
  late.payload = to_bytes("w");
  s.on_packet(2, late.encode());
  s.pump();
  EXPECT_EQ(s.metrics().unroutable_dropped, dropped + 1);
  EXPECT_FALSE(s.has_instance(path));
  EXPECT_EQ(s.ooc_size(), 0u);
}

TEST(AtomicBroadcast, LargePayloads) {
  Cluster c(fast_lan(4, 7));
  AbGroup g(c);
  const Bytes big(10000, 0x42);  // the paper's 10K experiments
  for (ProcessId p : c.live()) g.send(p, Bytes(big));
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 4); }, kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

class AbGroupSize : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AbGroupSize, TotalOrderAcrossGroupSizes) {
  const std::uint32_t n = GetParam();
  Cluster c(fast_lan(n, 300 + n));
  AbGroup g(c);
  for (ProcessId p : c.live()) g.send(p, to_bytes("n" + std::to_string(p)));
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), n); }, kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AbGroupSize, ::testing::Values(4u, 7u, 10u));

TEST(AtomicBroadcast, RbSeqEncodingRoundTrips) {
  AtomicBroadcast::RbKey key;
  ASSERT_TRUE(AtomicBroadcast::decode_rb_seq(AtomicBroadcast::msg_seq(3, 12345), key));
  EXPECT_FALSE(key.is_vect);
  EXPECT_EQ(key.origin, 3u);
  EXPECT_EQ(key.rbid, 12345u);
  ASSERT_TRUE(AtomicBroadcast::decode_rb_seq(AtomicBroadcast::vect_seq(7, 2), key));
  EXPECT_TRUE(key.is_vect);
  EXPECT_EQ(key.round, 7u);
  EXPECT_EQ(key.origin, 2u);
  EXPECT_FALSE(AtomicBroadcast::decode_rb_seq(1ULL << 63, key));
}

TEST(AtomicBroadcast, BatchFramingRoundTrips) {
  std::vector<Slice> msgs = {to_bytes("a"), Bytes{}, Bytes(300, 0x5a)};
  auto dec = AtomicBroadcast::decode_batch(AtomicBroadcast::encode_batch(msgs));
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ((*dec)[i], msgs[i]);

  // Malformed framings all rejected: empty batch, impossible count,
  // truncated length prefix / body, trailing bytes.
  Writer empty;
  empty.u32(0);
  EXPECT_FALSE(AtomicBroadcast::decode_batch(std::move(empty).take()).has_value());
  Writer huge;
  huge.u32(0xffffffffu);
  EXPECT_FALSE(AtomicBroadcast::decode_batch(std::move(huge).take()).has_value());
  Writer truncated;
  truncated.u32(2);
  truncated.bytes(to_bytes("only-one"));
  EXPECT_FALSE(
      AtomicBroadcast::decode_batch(std::move(truncated).take()).has_value());
  Bytes enc = AtomicBroadcast::encode_batch(msgs);
  enc.pop_back();
  EXPECT_FALSE(AtomicBroadcast::decode_batch(std::move(enc)).has_value());
  Bytes trailing = AtomicBroadcast::encode_batch(msgs);
  trailing.push_back(0);
  EXPECT_FALSE(AtomicBroadcast::decode_batch(std::move(trailing)).has_value());
}

TEST(AtomicBroadcast, BatchUnpackSlicesAliasAndPinTheFrame) {
  // Zero-copy batch unpack: every decoded sub-message points into the
  // sealed frame, and any one of them keeps the frame alive after all
  // other references are gone.
  Slice survivor;
  const std::uint8_t* frame_base = nullptr;
  std::size_t frame_size = 0;
  {
    std::vector<Slice> msgs = {to_bytes("first"), to_bytes("second"),
                               Bytes(1000, 0x11)};
    Buffer frame = Buffer::own(AtomicBroadcast::encode_batch(msgs));
    frame_base = frame.data();
    frame_size = frame.size();
    auto dec = AtomicBroadcast::decode_batch(frame);
    ASSERT_TRUE(dec.has_value());
    ASSERT_EQ(dec->size(), 3u);
    for (const Slice& m : *dec) {
      EXPECT_GE(m.data(), frame_base);
      EXPECT_LE(m.data() + m.size(), frame_base + frame_size);
    }
    survivor = (*dec)[1];
  }  // frame handle and the other slices die here
  EXPECT_EQ(to_string(survivor.view()), "second");
  EXPECT_EQ(survivor.buffer().use_count(), 1);
  EXPECT_EQ(survivor.buffer().data(), frame_base);  // same block, still alive
}

TEST(AtomicBroadcast, BatchingPreservesTotalOrderAndCounts) {
  test::ClusterOptions o = fast_lan(4, 21);
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 8;
  Cluster c(o);
  AbGroup g(c);
  const std::size_t kPer = 25;
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] {
      for (std::size_t i = 0; i < kPer; ++i) {
        g.bcast(p, to_bytes("b" + std::to_string(p) + "-" + std::to_string(i)));
      }
    });
  }
  const std::size_t total = kPer * 4;
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), total); },
                          kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
  // Per-origin FIFO survives batching: within one origin, payload index
  // order matches submission order.
  for (ProcessId p : c.live()) {
    std::vector<std::size_t> next(4, 0);
    for (const auto& e : g.log(p)) {
      const std::string want =
          "b" + std::to_string(e.origin) + "-" + std::to_string(next[e.origin]++);
      EXPECT_EQ(to_string(e.payload), want);
    }
  }
  const Metrics m = c.total_metrics();
  EXPECT_EQ(m.ab_batch_msgs, total);
  EXPECT_EQ(m.ab_delivered, total * 4);
  EXPECT_GT(m.ab_batches_sealed, 0u);
  EXPECT_LT(m.ab_batches_sealed, total);  // actually amortized
  EXPECT_EQ(m.ab_batch_malformed, 0u);
  // Fewer payload RBs than messages — the amortization Figure 4 measures.
  EXPECT_EQ(m.rb_started_payload, m.ab_batches_sealed);
}

TEST(AtomicBroadcast, BatchSealIsEventDriven) {
  // First message seals alone (pipeline idle); messages submitted while it
  // disseminates accumulate and seal on protocol events, never a clock.
  test::ClusterOptions o = fast_lan(4, 22);
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 64;
  Cluster c(o);
  AbGroup g(c);
  c.call(0, [&] {
    for (int i = 0; i < 5; ++i) g.bcast(0, to_bytes("e" + std::to_string(i)));
  });
  // Message 0 sealed immediately; 1..4 wait in the open batch.
  EXPECT_EQ(c.stack(0).metrics().ab_batches_sealed, 1u);
  EXPECT_EQ(g.at(0).open_batch_msgs(), 4u);
  c.call(0, [&] { g.at(0).flush(); });
  EXPECT_EQ(c.stack(0).metrics().ab_batches_sealed, 2u);
  EXPECT_EQ(g.at(0).open_batch_msgs(), 0u);
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 5); }, kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, BatchByteLimitSeals) {
  test::ClusterOptions o = fast_lan(4, 23);
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 1000;
  o.stack.ab_batch.max_batch_bytes = 256;
  Cluster c(o);
  AbGroup g(c);
  const Bytes chunk(100, 0x7e);
  c.call(0, [&] {
    for (int i = 0; i < 7; ++i) g.bcast(0, Bytes(chunk));
  });
  // Seal 1: first message (idle pipeline). Then 100+4 byte entries hit the
  // 256-byte cap every third append while the pipeline is busy.
  EXPECT_GE(c.stack(0).metrics().ab_batches_sealed, 3u);
  c.call(0, [&] { g.at(0).flush(); });
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 7); }, kDeadline));
  const auto r = g.check(c.live());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, BatchingByzantineFaultload) {
  test::ClusterOptions o = fast_lan(4, 24);
  o.byzantine = {2};
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 4;
  Cluster c(o);
  AbGroup g(c);
  for (int i = 0; i < 4; ++i) {
    for (ProcessId p : c.live()) {
      g.send(p, to_bytes("y" + std::to_string(p) + std::to_string(i)));
    }
  }
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] { g.at(p).flush(); });
  }
  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.correct_set(), 16); },
                          kDeadline));
  const auto r = g.check(c.correct_set());
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AtomicBroadcast, IdVectorEncodingRoundTrips) {
  std::vector<AtomicBroadcast::MsgId> ids = {{0, 0}, {1, 7}, {3, 1ULL << 39}};
  auto dec = AtomicBroadcast::decode_ids(AtomicBroadcast::encode_ids(ids));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, ids);
  // Oversized counts rejected.
  Writer w;
  w.u32(0x7fffffff);
  EXPECT_FALSE(AtomicBroadcast::decode_ids(w.data()).has_value());
}

}  // namespace
}  // namespace ritas
