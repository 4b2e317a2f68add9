// ProtocolStack unit tests: demultiplexing, spawn-on-demand, the
// out-of-context table (store/drain/evict/purge), defensive drops, and the
// root resolver hook (create / drop / park roots on first reference).
#include "core/stack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/message.h"
#include "core/variants.h"

namespace ritas {
namespace {

struct SentFrame {
  ProcessId to;
  Slice frame;
};

class FakeTransport final : public Transport {
 public:
  void send(ProcessId to, Slice frame) override {
    sent.push_back(SentFrame{to, std::move(frame)});
  }
  std::vector<SentFrame> sent;
};

struct Rx {
  InstanceId path;
  ProcessId from;
  std::uint8_t tag;
  Bytes payload;
};

/// Test protocol: records inbound messages; can spawn children on demand.
class Probe final : public Protocol {
 public:
  Probe(ProtocolStack& stack, Protocol* parent, InstanceId id,
        std::vector<Rx>* log, bool spawnable = false, bool tombstone = false)
      : Protocol(stack, parent, std::move(id)),
        log_(log),
        spawnable_(spawnable),
        tombstone_(tombstone) {}

  void on_message(ProcessId from, std::uint8_t tag, const Slice& payload) override {
    log_->push_back(Rx{id(), from, tag, payload.to_bytes()});
  }

  Protocol* spawn_child(const Component& c, bool& drop) override {
    drop = tombstone_;
    if (!spawnable_ || tombstone_) return nullptr;
    auto child = std::make_unique<Probe>(stack_, this, id().child(c), log_,
                                         spawnable_, tombstone_);
    return &add_child(std::move(child));
  }

  void set_spawnable(bool s) { spawnable_ = s; }

  using Protocol::broadcast;
  using Protocol::destroy_child;
  using Protocol::send;

 private:
  std::vector<Rx>* log_;
  bool spawnable_;
  bool tombstone_;
};

class StackTest : public ::testing::Test {
 protected:
  StackTest()
      : keys_(KeyChain::deal(to_bytes("k"), 4, 0)), stack_(make_config(), transport_, keys_, 7) {}

  static StackConfig make_config() {
    StackConfig cfg;
    cfg.n = 4;
    cfg.self = 0;
    cfg.ooc_per_sender = 4;  // small quota so eviction is testable
    return cfg;
  }

  Buffer frame_for(const InstanceId& path, std::uint8_t tag, Bytes payload) {
    Message m;
    m.path = path;
    m.tag = tag;
    m.payload = std::move(payload);
    return m.encode();
  }

  FakeTransport transport_;
  KeyChain keys_;
  ProtocolStack stack_;
  std::vector<Rx> log_;
};

TEST_F(StackTest, DispatchToRegisteredInstance) {
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  stack_.on_packet(2, frame_for(id, 5, to_bytes("x")));
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].from, 2u);
  EXPECT_EQ(log_[0].tag, 5);
  EXPECT_EQ(to_string(log_[0].payload), "x");
}

TEST_F(StackTest, MalformedFrameDropped) {
  stack_.on_packet(1, to_bytes("garbage"));
  EXPECT_EQ(stack_.metrics().malformed_dropped, 1u);
  EXPECT_TRUE(log_.empty());
}

TEST_F(StackTest, FrameFromSelfOrOutOfRangeDropped) {
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  stack_.on_packet(0, frame_for(id, 0, {}));  // from == self: impossible
  stack_.on_packet(9, frame_for(id, 0, {}));  // out of range
  EXPECT_EQ(stack_.metrics().malformed_dropped, 2u);
  EXPECT_TRUE(log_.empty());
}

TEST_F(StackTest, DuplicateRegistrationThrows) {
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  EXPECT_THROW(Probe(stack_, nullptr, id, &log_), std::logic_error);
}

TEST_F(StackTest, OocStoredThenDrainedOnRegistration) {
  const InstanceId id = InstanceId::root(ProtocolType::kEchoBroadcast, 9);
  stack_.on_packet(1, frame_for(id, 2, to_bytes("early")));
  EXPECT_EQ(stack_.metrics().ooc_stored, 1u);
  EXPECT_EQ(stack_.ooc_size(), 1u);
  EXPECT_TRUE(log_.empty());

  Probe probe(stack_, nullptr, id, &log_);
  stack_.pump();
  EXPECT_EQ(stack_.metrics().ooc_drained, 1u);
  EXPECT_EQ(stack_.ooc_size(), 0u);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(to_string(log_[0].payload), "early");
}

TEST_F(StackTest, OocPerSenderQuotaEvictsOldest) {
  // Sender 1 floods 6 messages; quota is 4 => the 2 oldest evicted.
  for (int i = 0; i < 6; ++i) {
    const auto id = InstanceId::root(ProtocolType::kReliableBroadcast,
                                     static_cast<std::uint64_t>(100 + i));
    stack_.on_packet(1, frame_for(id, 0, Bytes{static_cast<std::uint8_t>(i)}));
  }
  EXPECT_EQ(stack_.metrics().ooc_evicted, 2u);
  EXPECT_EQ(stack_.ooc_size(), 4u);
}

TEST_F(StackTest, OocQuotaIsPerSender) {
  // A flooding sender must not evict another sender's parked messages.
  const auto honest = InstanceId::root(ProtocolType::kReliableBroadcast, 50);
  stack_.on_packet(2, frame_for(honest, 1, to_bytes("honest")));
  for (int i = 0; i < 20; ++i) {
    const auto id = InstanceId::root(ProtocolType::kReliableBroadcast,
                                     static_cast<std::uint64_t>(1000 + i));
    stack_.on_packet(1, frame_for(id, 0, {}));
  }
  Probe probe(stack_, nullptr, honest, &log_);
  stack_.pump();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(to_string(log_[0].payload), "honest");
}

TEST_F(StackTest, OocPurgedOnInstanceDestruction) {
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  const InstanceId childpath = root.child({ProtocolType::kReliableBroadcast, 3});
  {
    Probe probe(stack_, nullptr, root, &log_);  // not spawnable
    stack_.on_packet(1, frame_for(childpath, 0, {}));
    EXPECT_EQ(stack_.ooc_size(), 1u);
  }  // destroying the root purges the subtree's parked messages
  EXPECT_EQ(stack_.ooc_size(), 0u);
}

TEST_F(StackTest, SpawnOnDemandWalksDownThePath) {
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  Probe probe(stack_, nullptr, root, &log_, /*spawnable=*/true);
  const InstanceId deep = root.child({ProtocolType::kMultiValuedConsensus, 0})
                              .child({ProtocolType::kBinaryConsensus, 0})
                              .child({ProtocolType::kReliableBroadcast, 7});
  stack_.on_packet(3, frame_for(deep, 1, to_bytes("deep")));
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].path, deep);
  EXPECT_TRUE(stack_.has_instance(deep));
  EXPECT_TRUE(stack_.has_instance(deep.parent()));
}

TEST_F(StackTest, TombstoneDropsPermanently) {
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  Probe probe(stack_, nullptr, root, &log_, /*spawnable=*/false, /*tombstone=*/true);
  const InstanceId dead = root.child({ProtocolType::kReliableBroadcast, 1});
  stack_.on_packet(1, frame_for(dead, 0, {}));
  EXPECT_EQ(stack_.metrics().unroutable_dropped, 1u);
  EXPECT_EQ(stack_.ooc_size(), 0u);
}

TEST_F(StackTest, SelfMessagesLoopWithoutTransport) {
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  probe.send(0, 9, to_bytes("loop"));
  stack_.pump();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].from, 0u);
  EXPECT_TRUE(transport_.sent.empty());
}

TEST_F(StackTest, BroadcastReachesAllPeersAndSelf) {
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  probe.broadcast(1, to_bytes("all"));
  stack_.pump();
  EXPECT_EQ(transport_.sent.size(), 3u);  // peers 1..3
  ASSERT_EQ(log_.size(), 1u);             // self loopback
  EXPECT_EQ(stack_.metrics().msgs_sent, 3u);
}

TEST_F(StackTest, RegisteringAncestorDrainsDescendantOoc) {
  // Messages arriving before the application creates the root must be
  // parked and then routed (via spawn-on-demand) once the root appears.
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  const InstanceId child = root.child({ProtocolType::kReliableBroadcast, 5});
  stack_.on_packet(1, frame_for(child, 0, to_bytes("parked")));  // no root yet
  EXPECT_EQ(stack_.ooc_size(), 1u);
  Probe probe(stack_, nullptr, root, &log_, /*spawnable=*/true);
  stack_.pump();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(to_string(log_[0].payload), "parked");
  EXPECT_TRUE(stack_.has_instance(child));
}

TEST_F(StackTest, RetryOocRedispatchesAfterWindowAdvance) {
  // A parent that refuses a spawn (flow-control window) parks the message;
  // when the window advances it calls retry_ooc and the message flows.
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  Probe probe(stack_, nullptr, root, &log_, /*spawnable=*/false);
  const InstanceId child = root.child({ProtocolType::kReliableBroadcast, 5});
  stack_.on_packet(1, frame_for(child, 0, to_bytes("parked")));
  EXPECT_EQ(stack_.ooc_size(), 1u);
  EXPECT_TRUE(log_.empty());
  probe.set_spawnable(true);  // "window advanced"
  stack_.retry_ooc(root);
  stack_.pump();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(to_string(log_[0].payload), "parked");
}

TEST_F(StackTest, InstanceCountTracksTree) {
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  EXPECT_EQ(stack_.instance_count(), 0u);
  {
    Probe probe(stack_, nullptr, root, &log_, true);
    const InstanceId deep = root.child({ProtocolType::kBinaryConsensus, 0})
                                .child({ProtocolType::kReliableBroadcast, 1});
    stack_.on_packet(1, frame_for(deep, 0, {}));
    EXPECT_EQ(stack_.instance_count(), 3u);
  }
  EXPECT_EQ(stack_.instance_count(), 0u);
}

TEST_F(StackTest, BroadcastEncodesExactlyOneSharedFrame) {
  // Encode-once fan-out: one broadcast = one Message::encode, and all n-1
  // transport sends alias the SAME refcounted frame (no per-peer copies).
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  const std::uint64_t broadcasts = 5;
  for (std::uint64_t i = 0; i < broadcasts; ++i) {
    probe.broadcast(1, to_bytes("payload"));
    stack_.pump();
  }
  EXPECT_EQ(stack_.metrics().frames_encoded, broadcasts);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(stack_.metrics().frames_encoded) / broadcasts, 1.0);
  ASSERT_EQ(transport_.sent.size(), 3 * broadcasts);
  // The 3 frames of each broadcast share one underlying buffer.
  for (std::uint64_t i = 0; i < broadcasts; ++i) {
    const std::uint8_t* base = transport_.sent[3 * i].frame.data();
    EXPECT_EQ(transport_.sent[3 * i + 1].frame.data(), base);
    EXPECT_EQ(transport_.sent[3 * i + 2].frame.data(), base);
  }
}

TEST_F(StackTest, UnicastEncodesOneFrame) {
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  Probe probe(stack_, nullptr, id, &log_);
  probe.send(2, 4, to_bytes("one"));
  stack_.pump();
  EXPECT_EQ(stack_.metrics().frames_encoded, 1u);
  EXPECT_EQ(transport_.sent.size(), 1u);
}

TEST_F(StackTest, ReceivedPayloadAliasesArrivalFrame) {
  // Zero-copy decode: the payload slice handed to the protocol points into
  // the arrival frame, and the aliased-bytes counter advances while the
  // copied-bytes counter stays 0.
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  class AliasProbe final : public Protocol {
   public:
    AliasProbe(ProtocolStack& s, InstanceId id) : Protocol(s, nullptr, std::move(id)) {}
    void on_message(ProcessId, std::uint8_t, const Slice& payload) override {
      seen = payload;  // retain the slice; must stay valid via refcount
    }
    Slice seen;
  } probe(stack_, id);
  Buffer frame = frame_for(id, 3, to_bytes("aliased-bytes"));
  const std::uint8_t* frame_base = frame.data();
  const std::size_t frame_size = frame.size();
  stack_.on_packet(1, std::move(frame));
  ASSERT_EQ(probe.seen.size(), 13u);
  // The slice's data lies inside the arrival frame's allocation.
  EXPECT_GE(probe.seen.data(), frame_base);
  EXPECT_LE(probe.seen.data() + probe.seen.size(), frame_base + frame_size);
  EXPECT_EQ(stack_.metrics().payload_bytes_aliased, 13u);
  EXPECT_EQ(stack_.metrics().payload_bytes_copied, 0u);
}

TEST_F(StackTest, OocQuotaZeroDropsEverythingWithoutUnderflow) {
  // ooc_per_sender = 0: nothing may ever be parked, nothing may be
  // evicted (there is nothing to evict), and repeated floods must not
  // underflow the per-sender counters or throw.
  StackConfig cfg = make_config();
  cfg.ooc_per_sender = 0;
  FakeTransport t;
  ProtocolStack s(cfg, t, keys_, 7);
  for (int i = 0; i < 50; ++i) {
    const auto id = InstanceId::root(ProtocolType::kReliableBroadcast,
                                     static_cast<std::uint64_t>(100 + i));
    s.on_packet(1 + static_cast<ProcessId>(i % 3),
                frame_for(id, 0, Bytes{static_cast<std::uint8_t>(i)}));
  }
  EXPECT_EQ(s.ooc_size(), 0u);
  EXPECT_EQ(s.metrics().ooc_stored, 0u);
  EXPECT_EQ(s.metrics().ooc_evicted, 0u);
  EXPECT_EQ(s.metrics().ooc_drained, 0u);
  // Registering the instance later finds nothing parked — quota 0 means
  // the early messages are simply gone.
  std::vector<Rx> log;
  const auto id = InstanceId::root(ProtocolType::kReliableBroadcast, 100);
  Probe probe(s, nullptr, id, &log);
  s.pump();
  EXPECT_TRUE(log.empty());
}

TEST_F(StackTest, RejectsBadConfig) {
  StackConfig bad;
  bad.n = 3;  // below 3f+1 with f=1
  bad.self = 0;
  EXPECT_THROW(ProtocolStack(bad, transport_, keys_, 1), std::invalid_argument);
  StackConfig bad2;
  bad2.n = 4;
  bad2.self = 4;
  EXPECT_THROW(ProtocolStack(bad2, transport_, keys_, 1), std::invalid_argument);
}

// --- root resolver --------------------------------------------------------

TEST_F(StackTest, ResolverCreatedRootReceivesTheFrame) {
  const InstanceId root = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  const InstanceId deep = root.child({ProtocolType::kReliableBroadcast, 7});
  std::vector<InstanceId> asked;
  std::unique_ptr<Probe> made;
  stack_.set_root_resolver([&](const InstanceId& r) {
    asked.push_back(r);
    made = std::make_unique<Probe>(stack_, nullptr, r, &log_, /*spawnable=*/true);
    return RootVerdict::kCreated;
  });
  stack_.on_packet(1, frame_for(deep, 1, to_bytes("on demand")));
  ASSERT_EQ(asked.size(), 1u);
  EXPECT_EQ(asked[0], root);  // asked about the root, not the full path
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].path, deep);
  EXPECT_EQ(stack_.metrics().ooc_stored, 0u);
  // Once registered, the root is routed to without asking again.
  stack_.on_packet(2, frame_for(root, 2, {}));
  EXPECT_EQ(asked.size(), 1u);
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(StackTest, ResolverDropAndOutOfContextVerdicts) {
  RootVerdict verdict = RootVerdict::kDrop;
  stack_.set_root_resolver([&](const InstanceId&) { return verdict; });
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 3);
  stack_.on_packet(1, frame_for(id, 0, to_bytes("gone")));
  EXPECT_EQ(stack_.metrics().unroutable_dropped, 1u);
  EXPECT_EQ(stack_.ooc_size(), 0u);
  verdict = RootVerdict::kOutOfContext;
  stack_.on_packet(1, frame_for(id, 0, to_bytes("early")));
  EXPECT_EQ(stack_.ooc_size(), 1u);
  // A resolver claiming kCreated without registering anything parks too.
  verdict = RootVerdict::kCreated;
  stack_.on_packet(2, frame_for(id, 0, to_bytes("claimed")));
  EXPECT_EQ(stack_.ooc_size(), 2u);
  EXPECT_TRUE(log_.empty());
}

/// n stacks joined by an in-memory loopback: sends queue up and run()
/// delivers them in FIFO order until the mesh is quiet. Clock-less, so
/// traces are deterministic.
class LoopbackMesh {
 public:
  struct Hop {
    ProcessId from, to;
    Slice frame;
  };

  explicit LoopbackMesh(std::uint32_t n) {
    for (ProcessId p = 0; p < n; ++p) {
      links_.push_back(std::make_unique<Link>(*this, p));
      keys_.push_back(std::make_unique<KeyChain>(KeyChain::deal(to_bytes("lb"), n, p)));
      StackConfig cfg;
      cfg.n = n;
      cfg.self = p;
      stacks_.push_back(
          std::make_unique<ProtocolStack>(cfg, *links_[p], *keys_[p], 100 + p));
    }
  }
  ProtocolStack& stack(ProcessId p) { return *stacks_[p]; }
  void inject(const Hop& h) { stacks_[h.to]->on_packet(h.from, h.frame); }
  void run() {
    while (!queue_.empty()) {
      Hop h = std::move(queue_.front());
      queue_.pop_front();
      delivered.push_back(h);
      inject(h);
    }
  }
  std::vector<Hop> delivered;

 private:
  class Link final : public Transport {
   public:
    Link(LoopbackMesh& mesh, ProcessId self) : mesh_(mesh), self_(self) {}
    void send(ProcessId to, Slice frame) override {
      mesh_.queue_.push_back(Hop{self_, to, std::move(frame)});
    }

   private:
    LoopbackMesh& mesh_;
    ProcessId self_;
  };

  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<KeyChain>> keys_;
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;
  std::deque<Hop> queue_;
};

/// One process's rb roots for origin 1 (root seq = k), created on demand
/// under the create / drop-below-watermark / out-of-context-beyond-window
/// rule, with each delivery re-offering the keys it admits.
class WindowedRoots {
 public:
  WindowedRoots(ProtocolStack& stack, std::uint64_t window)
      : stack_(stack), window_(window) {}

  RootVerdict admit(const InstanceId& root) {
    const std::uint64_t k = root.at(0).seq;
    if (k < created_) return RootVerdict::kDrop;
    if (k >= delivered_ + window_) return RootVerdict::kOutOfContext;
    for (; created_ <= k; ++created_) {
      const std::uint64_t j = created_;
      roots[j] = make_rb(stack_, nullptr, id(j), 1, Attribution::kPayload,
                         [this, j](Slice payload) { on_deliver(j, payload); });
    }
    return RootVerdict::kCreated;
  }
  void install() {
    stack_.set_root_resolver([this](const InstanceId& r) { return admit(r); });
  }
  static InstanceId id(std::uint64_t k) {
    return InstanceId::root(ProtocolType::kReliableBroadcast, k);
  }

  std::map<std::uint64_t, std::unique_ptr<RbAlgorithm>> roots;
  std::vector<std::string> got;

 private:
  void on_deliver(std::uint64_t k, const Slice& payload) {
    got.push_back(to_string(payload.to_bytes()));
    const std::uint64_t old_end = delivered_ + window_;
    delivered_ = std::max(delivered_, k + 1);
    for (std::uint64_t j = old_end; j < delivered_ + window_; ++j) {
      stack_.retry_ooc(id(j));
    }
  }

  ProtocolStack& stack_;
  std::uint64_t window_;
  std::uint64_t created_ = 0, delivered_ = 0;
};

TEST(StackRootResolver, CreateParkAndDropOnALoopbackMesh) {
  LoopbackMesh mesh(4);
  std::vector<std::unique_ptr<WindowedRoots>> w;
  for (ProcessId p = 0; p < 4; ++p) {
    w.push_back(std::make_unique<WindowedRoots>(mesh.stack(p), p == 0 ? 1 : 64));
    w[p]->install();
  }
  // Origin 1 starts broadcasts 0 and 1 before anything is delivered.
  for (std::uint64_t k = 0; k < 2; ++k) {
    ASSERT_EQ(w[1]->admit(WindowedRoots::id(k)), RootVerdict::kCreated);
    w[1]->roots[k]->bcast(to_bytes("b" + std::to_string(k)));
    mesh.stack(1).pump();
  }
  mesh.run();
  // p0 created root 0 on its first frame, parked broadcast 1 (beyond its
  // one-wide window) and drained it once broadcast 0 was delivered.
  const Metrics& m = mesh.stack(0).metrics();
  EXPECT_EQ(w[0]->got, (std::vector<std::string>{"b0", "b1"}));
  EXPECT_GT(m.ooc_stored, 0u);
  EXPECT_EQ(m.ooc_drained, m.ooc_stored);
  EXPECT_EQ(mesh.stack(0).ooc_size(), 0u);
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(w[p]->got.size(), 2u);

  // Root 0 delivered and destroyed: a late copy of one of its frames is
  // dropped below the watermark, not parked.
  w[0]->roots.erase(0);
  const std::uint64_t dropped = m.unroutable_dropped;
  bool replayed = false;
  for (const auto& h : mesh.delivered) {
    const auto msg = Message::decode(h.frame);
    if (h.to == 0 && msg && msg->path == WindowedRoots::id(0)) {
      mesh.inject(h);
      replayed = true;
      break;
    }
  }
  ASSERT_TRUE(replayed);
  EXPECT_EQ(m.unroutable_dropped, dropped + 1);
  EXPECT_EQ(mesh.stack(0).ooc_size(), 0u);
}

TEST(StackRootResolver, DecliningResolverLeavesTheTraceByteIdentical) {
  // p0 has no rb roots while the broadcasts run, so every frame to it is
  // parked, then drained when the roots appear. A resolver that always
  // answers kOutOfContext must produce exactly the no-resolver trace.
  auto trace = [](bool declining_resolver) {
    LoopbackMesh mesh(4);
    Tracer tracer(0);
    mesh.stack(0).set_tracer(&tracer);
    if (declining_resolver) {
      mesh.stack(0).set_root_resolver(
          [](const InstanceId&) { return RootVerdict::kOutOfContext; });
    }
    std::vector<std::unique_ptr<WindowedRoots>> w;
    for (ProcessId p = 1; p < 4; ++p) {
      w.push_back(std::make_unique<WindowedRoots>(mesh.stack(p), 64));
      w.back()->install();
    }
    for (std::uint64_t k = 0; k < 2; ++k) {
      w[0]->admit(WindowedRoots::id(k));
      w[0]->roots[k]->bcast(to_bytes("b" + std::to_string(k)));
      mesh.stack(1).pump();
    }
    mesh.run();
    std::vector<Slice> got;
    std::vector<std::unique_ptr<RbAlgorithm>> late;
    for (std::uint64_t k = 0; k < 2; ++k) {
      late.push_back(make_rb(mesh.stack(0), nullptr, WindowedRoots::id(k), 1,
                             Attribution::kPayload,
                             [&got](Slice payload) { got.push_back(payload); }));
    }
    mesh.stack(0).pump();
    mesh.run();
    EXPECT_EQ(got.size(), 2u);
    EXPECT_GT(mesh.stack(0).metrics().ooc_drained, 0u);
    return tracer.encode();
  };
  const Bytes plain = trace(false);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(trace(true), plain);
}

}  // namespace
}  // namespace ritas
