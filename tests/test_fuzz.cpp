// Protocol-level fuzzing: storms of random and semi-valid frames injected
// into live stacks mid-workload. Nothing may crash, and the legitimate
// workload must still complete with total order intact — the "Byzantine
// bytes cannot take a correct process down" guarantee, stress-tested.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>

#include "sim_helpers.h"

namespace ritas {
namespace {

using test::AbGroup;
using test::Cluster;
using test::fast_lan;
using test::kDeadline;

/// Processes whose frames these tests never forge. Frames injected as if
/// from p3 bypass channel authentication, which makes p3 a Byzantine
/// (equivocating) origin: the full §2.7 set holds over the others, and
/// total order still holds at every live process, p3 included.
const std::vector<ProcessId> kUnforged = {0, 1, 2};

/// Every live process, p3 included, delivered `k` unforged messages.
bool unforged_everywhere(const AbGroup& g, const Cluster& c, std::size_t k) {
  for (ProcessId p : c.live()) {
    std::size_t got = 0;
    for (const auto& e : g.log(p)) got += e.origin != 3 ? 1 : 0;
    if (got < k) return false;
  }
  return true;
}

/// The §2.7 set for a run whose p3 frames were forged (see kUnforged).
sim::oracle::Report check_forged_p3(const AbGroup& g, const Cluster& c) {
  sim::oracle::Report r = g.check(kUnforged);
  sim::oracle::ab_total_order(r, c.live(), g.recorder().logs());
  return r;
}

/// Builds a structurally valid Message with randomized path/tag/payload.
Message random_message(Rng& rng) {
  Message m;
  const InstanceId ab = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  switch (rng.below(6)) {
    case 0:
      m.path = ab;
      break;
    case 1:
      m.path = ab.child({ProtocolType::kReliableBroadcast,
                         AtomicBroadcast::msg_seq(
                             static_cast<ProcessId>(rng.below(6)), rng.below(64))});
      break;
    case 2:
      m.path = ab.child({ProtocolType::kReliableBroadcast,
                         AtomicBroadcast::vect_seq(
                             static_cast<std::uint32_t>(rng.below(8)),
                             static_cast<ProcessId>(rng.below(6)))});
      break;
    case 3:
      m.path = ab.child({ProtocolType::kMultiValuedConsensus, rng.below(8)});
      break;
    case 4:
      m.path = ab.child({ProtocolType::kMultiValuedConsensus, rng.below(4)})
                   .child({ProtocolType::kBinaryConsensus, 0})
                   .child({ProtocolType::kReliableBroadcast, rng.below(256)});
      break;
    default:
      m.path = InstanceId::root(
          static_cast<ProtocolType>(1 + rng.below(6)), rng.below(1024));
      break;
  }
  m.tag = static_cast<std::uint8_t>(rng.below(8));
  Bytes payload(rng.below(40));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  m.payload = std::move(payload);
  return m;
}

TEST(Fuzz, RandomBytesDuringBurst) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Cluster c(fast_lan(4, 900 + seed));
    AbGroup g(c);
    Rng fuzz(seed * 7 + 1);
    for (ProcessId p : c.live()) {
      c.call(p, [&, p] {
        for (int i = 0; i < 4; ++i) g.bcast(p, to_bytes("w"));
      });
    }
    // Storm of pure garbage from "peer 3" into every stack.
    for (int i = 0; i < 500; ++i) {
      Bytes junk(fuzz.below(100));
      for (auto& b : junk) b = static_cast<std::uint8_t>(fuzz.next());
      const ProcessId victim = static_cast<ProcessId>(fuzz.below(4));
      const ProcessId claimed = static_cast<ProcessId>(fuzz.below(4));
      if (victim == claimed) continue;
      c.stack(victim).on_packet(claimed, std::move(junk));
    }
    ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 16); },
                            kDeadline))
        << "seed " << seed;
    const auto r = g.check(c.live());
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.text();
  }
}

TEST(Fuzz, StructurallyValidGarbageFrames) {
  // Decodable messages with random paths/tags/payloads — these exercise
  // the demux, spawn-on-demand, windows, tombstones and every protocol's
  // input validation, not just the frame parser.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Cluster c(fast_lan(4, 950 + seed));
    AbGroup g(c);
    Rng fuzz(seed * 13 + 5);
    for (ProcessId p : c.live()) {
      c.call(p, [&, p] {
        for (int i = 0; i < 4; ++i) g.bcast(p, to_bytes("x"));
      });
    }
    for (int i = 0; i < 800; ++i) {
      const Message m = random_message(fuzz);
      const ProcessId victim = static_cast<ProcessId>(fuzz.below(4));
      const ProcessId claimed = static_cast<ProcessId>(fuzz.below(4));
      if (victim == claimed) continue;
      c.stack(victim).on_packet(claimed, m.encode());
    }
    ASSERT_TRUE(c.run_until([&] { return g.everyone_has(c.live(), 16); },
                            kDeadline))
        << "seed " << seed;
    // The frames claim every sender, but none of them completes a forged
    // broadcast in these seeds, so all four origins still count as correct.
    const auto r = g.check(c.live());
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.text();
    // The storm was noticed and counted, not absorbed silently.
    Metrics m = c.total_metrics();
    EXPECT_GT(m.invalid_dropped + m.malformed_dropped + m.unroutable_dropped +
                  m.ooc_stored,
              0u);
  }
}

TEST(Fuzz, MutatedRealFrames) {
  // Take a real frame (a valid AB_MSG INIT for p3's first broadcast), flip
  // random bits, and inject the variants as if p3 sent them. Racing its
  // own real INIT with corrupted twins makes p3 an *equivocating origin*,
  // so its broadcast may legitimately never deliver — but no process may
  // crash, the three correct senders' messages must still deliver, and
  // whatever does deliver must stay totally ordered.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Cluster c(fast_lan(4, 980 + seed));
    AbGroup g(c);
    Rng fuzz(seed + 31);
    for (ProcessId p : c.live()) {
      g.send(p, to_bytes("payload-" + std::to_string(p)));
    }
    Message real;
    real.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
                    .child({ProtocolType::kReliableBroadcast,
                            AtomicBroadcast::msg_seq(3, 0)});
    real.tag = ReliableBroadcast::kInit;
    real.payload = to_bytes("genuine byzantine payload");
    const Bytes frame = Slice(real.encode()).to_bytes();
    for (int i = 0; i < 300; ++i) {
      Bytes mutated = frame;
      const std::size_t flips = 1 + fuzz.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[fuzz.below(mutated.size())] ^= static_cast<std::uint8_t>(
            1u << fuzz.below(8));
      }
      c.stack(static_cast<ProcessId>(fuzz.below(4))).on_packet(3, std::move(mutated));
    }
    ASSERT_TRUE(
        c.run_until([&] { return unforged_everywhere(g, c, 3); }, kDeadline))
        << "seed " << seed;
    c.run_all();
    const auto r = check_forged_p3(g, c);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.text();
  }
}

TEST(Fuzz, MalformedBatchFramesAreCountedDrops) {
  // Batching on: a Byzantine origin reliably broadcasts AB_MSG payloads
  // whose batch framing is garbage — truncated length prefix, impossible
  // count, empty batch. RB agreement makes every correct process see the
  // same bytes, so every one of them drops the identifier alike (counted
  // in ab_batch_malformed + invalid_dropped), nobody throws, and the
  // legitimate batched workload still delivers in total order.
  test::ClusterOptions o = fast_lan(4, 990);
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 4;
  Cluster c(o);
  AbGroup g(c);

  // Processes 0-2 run a real workload; "p3" only exists as the claimed
  // sender of the injected frames.
  for (ProcessId p : kUnforged) {
    c.call(p, [&, p] {
      for (int i = 0; i < 4; ++i) {
        g.bcast(p, to_bytes("ok" + std::to_string(p) + std::to_string(i)));
      }
      g.at(p).flush();
    });
  }

  Writer truncated;  // count says 2, body holds 1 message
  truncated.u32(2);
  truncated.bytes(to_bytes("one"));
  Writer overlong;  // count the payload cannot physically hold
  overlong.u32(0xffffffffu);
  Writer empty;  // zero-message batch
  empty.u32(0);
  const Bytes payloads[3] = {std::move(truncated).take(),
                             std::move(overlong).take(), std::move(empty).take()};
  for (std::uint64_t rbid = 0; rbid < 3; ++rbid) {
    Message m;
    m.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
                 .child({ProtocolType::kReliableBroadcast,
                         AtomicBroadcast::msg_seq(3, rbid)});
    m.tag = ReliableBroadcast::kInit;
    m.payload = Bytes(payloads[rbid]);
    const Buffer frame = m.encode();
    for (ProcessId victim = 0; victim < 3; ++victim) {
      c.stack(victim).on_packet(3, frame);
    }
  }

  ASSERT_TRUE(c.run_until([&] { return g.everyone_has(kUnforged, 12); },
                          kDeadline));
  c.run_all();
  const auto r = check_forged_p3(g, c);
  EXPECT_TRUE(r.ok()) << r.text();
  const Metrics m = c.total_metrics();
  // Each of the 3 injected identifiers RB-delivers at the 3 correct
  // processes (totality), and each delivery is a counted drop.
  EXPECT_GE(m.ab_batch_malformed, 9u);
  EXPECT_GE(m.invalid_dropped, m.ab_batch_malformed);
}

TEST(Fuzz, CrossVariantFramesAreCountedDrops) {
  // The variant seam's wire guarantee, in the direction the corpus files
  // can't exercise: Bracha-coded frames injected into live stacks running
  // the non-default variants. Tag spaces are disjoint by construction
  // (docs/PROTOCOLS.md "Variant negotiation & tag encodings"), so none of
  // these may enter a quorum — every frame is a counted drop or an
  // out-of-context park, and the variant workloads still complete.

  // Bracha INIT/ECHO/READY into a live Imbs–Raynal broadcast (n = 6).
  {
    test::ClusterOptions o = fast_lan(6, 1234);
    o.stack.variants.rb = RbVariant::kImbsRaynal;
    Cluster c(o);
    test::DeliveryLog log(c.n());
    const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
    std::vector<RbAlgorithm*> rb(c.n(), nullptr);
    for (ProcessId p : c.live()) {
      rb[p] = &c.create_rb(p, id, 0, Attribution::kPayload, log.sink(p));
    }
    c.call(0, [&] { rb[0]->bcast(to_bytes("genuine")); });
    Message m;
    m.path = id;
    m.payload = to_bytes("forged");
    std::size_t injected = 0;
    for (std::uint8_t tag : {ReliableBroadcast::kInit, ReliableBroadcast::kEcho,
                             ReliableBroadcast::kReady}) {
      m.tag = tag;
      for (ProcessId victim : c.live()) {
        c.stack(victim).on_packet(victim == 3 ? 2 : 3, m.encode());
        ++injected;
      }
    }
    ASSERT_TRUE(c.run_until(
        [&] { return log.everyone_has(c.correct_set(), 1); }, kDeadline));
    c.run_all();
    for (ProcessId p : c.correct_set()) {
      ASSERT_EQ(log.by_process[p].size(), 1u);
      EXPECT_EQ(log.by_process[p][0], to_bytes("genuine"));
    }
    EXPECT_GE(c.total_metrics().invalid_dropped, injected);
  }

  // Bracha-era frames into a live Crain consensus (n = 4): RB tags at the
  // BC path itself, plus a Bracha step-RB child path — under Crain the BC
  // instance has no RB children at all, so the child frame must park or
  // drop rather than spawn anything.
  {
    test::ClusterOptions o = fast_lan(4, 4321);
    o.stack.variants.bc = BcVariant::kCrain;
    o.stack.coin_mode = CoinMode::kDealt;
    Cluster c(o);
    test::Capture<bool> cap(c.n());
    const InstanceId id = InstanceId::root(ProtocolType::kBinaryConsensus, 1);
    std::vector<BcAlgorithm*> bc(c.n(), nullptr);
    for (ProcessId p : c.live()) {
      bc[p] = &c.create_bc(p, id, Attribution::kAgreement, cap.sink(p));
    }
    for (ProcessId p : c.live()) {
      c.call(p, [&, p] { bc[p]->propose(p % 2 == 0); });
    }
    std::size_t injected = 0;
    Message m;
    m.path = id;
    m.payload = to_bytes("x");
    for (std::uint8_t tag : {ReliableBroadcast::kInit, ReliableBroadcast::kEcho,
                             ReliableBroadcast::kReady}) {
      m.tag = tag;
      for (ProcessId victim : c.live()) {
        c.stack(victim).on_packet(victim == 3 ? 2 : 3, m.encode());
        ++injected;
      }
    }
    Message child;
    child.path = id.child({ProtocolType::kReliableBroadcast,
                           BinaryConsensus::child_seq(1, 1, 0, 4)});
    child.tag = ReliableBroadcast::kInit;
    child.payload = to_bytes("y");
    for (ProcessId victim : c.live()) {
      c.stack(victim).on_packet(victim == 3 ? 2 : 3, child.encode());
      ++injected;
    }
    ASSERT_TRUE(
        c.run_until([&] { return cap.all_set(c.correct_set()); }, kDeadline));
    c.run_all();
    EXPECT_TRUE(cap.agree(c.correct_set()));
    const Metrics met = c.total_metrics();
    EXPECT_GE(met.invalid_dropped + met.unroutable_dropped + met.ooc_stored,
              injected);
  }
}

/// Loads one corpus file: hex bytes, whitespace ignored, '#' to EOL is a
/// comment. Returns nullopt on a file that is not well-formed hex (a test
/// bug, not a Byzantine input — the corpus itself must stay clean).
std::optional<Bytes> load_corpus_frame(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  Bytes out;
  int hi = -1;
  for (std::string line; std::getline(in, line);) {
    for (char ch : line) {
      if (ch == '#') break;
      if (std::isspace(static_cast<unsigned char>(ch))) continue;
      const int v = std::isdigit(static_cast<unsigned char>(ch)) ? ch - '0'
                    : ch >= 'a' && ch <= 'f'                     ? ch - 'a' + 10
                    : ch >= 'A' && ch <= 'F'                     ? ch - 'A' + 10
                                                                 : -1;
      if (v < 0) return std::nullopt;
      if (hi < 0) {
        hi = v;
      } else {
        out.push_back(static_cast<std::uint8_t>(hi << 4 | v));
        hi = -1;
      }
    }
  }
  if (hi >= 0) return std::nullopt;  // odd nibble count
  return out;
}

TEST(Fuzz, CorpusRegression) {
  // Every malformed frame that ever mattered, persisted under
  // tests/corpus/ and replayed into every live stack on every run: frames
  // must be counted drops (or parked out-of-context), never throws, and
  // the real workload must still totally order afterwards. Batching is on
  // so the batch-framing entries exercise the AB decode path too.
  const std::filesystem::path dir = RITAS_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".hex") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u) << "corpus went missing from " << dir;

  test::ClusterOptions o = fast_lan(4, 995);
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 4;
  Cluster c(o);
  AbGroup g(c);
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] {
      for (int i = 0; i < 4; ++i) g.bcast(p, to_bytes("live"));
      g.at(p).flush();
    });
  }
  for (const auto& file : files) {
    const auto frame = load_corpus_frame(file);
    ASSERT_TRUE(frame.has_value()) << "bad hex in " << file;
    for (ProcessId victim : c.live()) {
      // Claimed sender 3 (2 when 3 is the victim): always a real peer id,
      // never the victim itself.
      const ProcessId claimed = victim == 3 ? 2 : 3;
      c.stack(victim).on_packet(claimed, Bytes(*frame));
    }
  }
  // Corpus entries that forge AB(0)/RB(msg_seq(3,0)) race p3's own first
  // batch, making p3 an equivocating origin whose batch may legitimately
  // never deliver — so the progress goal counts the other origins only.
  ASSERT_TRUE(
      c.run_until([&] { return unforged_everywhere(g, c, 12); }, kDeadline));
  c.run_all();
  const auto r = check_forged_p3(g, c);
  EXPECT_TRUE(r.ok()) << r.text();
  // Every injected frame was noticed somewhere: parse rejects, protocol
  // rejects, foreign-group rejects, unroutable paths and out-of-context
  // parks all count.
  const Metrics m = c.total_metrics();
  EXPECT_GE(m.malformed_dropped + m.invalid_dropped + m.unroutable_dropped +
                m.foreign_group_dropped + m.ooc_stored,
            files.size())
      << "corpus frames absorbed silently";
}

TEST(Fuzz, SerializeReaderNeverCrashesOnRandomInput) {
  Rng fuzz(77);
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(fuzz.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(fuzz.next());
    Reader r(junk);
    // Exercise every accessor in random order; sticky failure keeps all of
    // this well-defined.
    switch (fuzz.below(5)) {
      case 0: (void)r.u8(); (void)r.u64(); (void)r.bytes(); break;
      case 1: (void)r.bytes(); (void)r.bytes(); break;
      case 2: (void)r.str(); (void)r.u32(); break;
      case 3: (void)r.raw(fuzz.below(128)); break;
      default: (void)InstanceId::decode(r); break;
    }
    (void)r.done();
  }
  SUCCEED();
}

}  // namespace
}  // namespace ritas
