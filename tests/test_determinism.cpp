// Reproducibility guarantees of the simulation harness: identical seeds
// replay identical executions — including runs of the *randomized*
// consensus — and different seeds explore different schedules. This is
// what makes every experiment in EXPERIMENTS.md exactly re-runnable.
#include <gtest/gtest.h>

#include "sim_helpers.h"

namespace ritas {
namespace {

using test::Cluster;
using test::fast_lan;
using test::kDeadline;

struct Fingerprint {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t coin_flips = 0;
  std::uint64_t rounds = 0;
  sim::Time finish = 0;
  bool decision = false;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint run_fingerprint(std::uint64_t seed, bool byzantine) {
  test::ClusterOptions o = fast_lan(4, seed);
  o.lan.jitter_ns = 500'000;
  if (byzantine) o.byzantine = {2};
  Cluster c(o);
  auto cap = test::run_binary_consensus(c, {true, false, true, false});
  Fingerprint f;
  const Metrics m = c.total_metrics();
  f.msgs_sent = m.msgs_sent;
  f.bytes_sent = m.bytes_sent;
  f.coin_flips = m.bc_coin_flips;
  f.rounds = m.bc_rounds_total;
  f.finish = c.now();
  f.decision = cap.got[0].has_value() && *cap.got[0];
  return f;
}

TEST(Determinism, SameSeedSameExecution) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    EXPECT_EQ(run_fingerprint(seed, false), run_fingerprint(seed, false))
        << "seed " << seed;
  }
}

TEST(Determinism, SameSeedSameExecutionWithByzantine) {
  EXPECT_EQ(run_fingerprint(5, true), run_fingerprint(5, true));
}

TEST(Determinism, DifferentSeedsDiverge) {
  // At least the traffic timing fingerprint must differ across seeds
  // (jitter is seeded); over several seeds the finish times cannot all
  // collide.
  std::set<sim::Time> finishes;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    finishes.insert(run_fingerprint(seed, false).finish);
  }
  EXPECT_GT(finishes.size(), 1u);
}

TEST(Determinism, AtomicBroadcastBurstReplays) {
  auto run = [](std::uint64_t seed) {
    test::ClusterOptions o = fast_lan(4, seed);
    o.lan.jitter_ns = 300'000;
    Cluster c(o);
    test::AbGroup g(c);
    for (int i = 0; i < 6; ++i) {
      for (ProcessId p : c.live()) g.send(p, to_bytes("d"));
    }
    c.run_until([&] { return g.log(0).size() >= 24; }, kDeadline);
    return std::make_pair(g.log(0), c.now());
  };
  EXPECT_EQ(run(11), run(11));
  // Not a requirement, but overwhelmingly likely: a different seed gives a
  // different finish time.
  EXPECT_NE(run(11).second, run(12).second);
}

TEST(Determinism, TraceBytesAreBitIdentical) {
  // The observability layer inherits the determinism guarantee: a traced
  // run serializes to the exact same bytes every time for a given seed.
  auto traced = [](std::uint64_t seed) {
    test::ClusterOptions o = fast_lan(4, seed);
    o.lan.jitter_ns = 500'000;
    o.trace = true;
    Cluster c(o);
    const auto cap = test::run_binary_consensus(c, {true, false, true, false});
    c.run_all();
    return c.trace_bytes();
  };
  const Bytes a = traced(21);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, traced(21));
  EXPECT_NE(a, traced(22));
}

TEST(Determinism, BatchedTraceBytesAreBitIdentical) {
  // Payload batching is sealed by protocol events only (no clocks), so a
  // batched run inherits the bit-identical trace guarantee — including the
  // new ab.batch_seal / ab.batch_unpack events.
  auto traced = [](std::uint64_t seed) {
    test::ClusterOptions o = fast_lan(4, seed);
    o.lan.jitter_ns = 500'000;
    o.trace = true;
    o.stack.ab_batch.enabled = true;
    o.stack.ab_batch.max_batch_msgs = 4;
    Cluster c(o);
    test::AbGroup g(c);
    for (ProcessId p : c.live()) {
      c.call(p, [&, p] {
        for (int i = 0; i < 10; ++i) {
          g.bcast(p, to_bytes("d" + std::to_string(p) + std::to_string(i)));
        }
        g.at(p).flush();
      });
    }
    c.run_until([&] { return g.log(0).size() >= 40; }, kDeadline);
    c.run_all();
    return c.trace_bytes();
  };
  const Bytes a = traced(31);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, traced(31));
  EXPECT_NE(a, traced(32));
}

TEST(Determinism, TracingDoesNotPerturbExecution) {
  // Attaching tracers must not change the schedule, the traffic or the
  // decisions — it is a pure observer.
  auto fingerprint = [](bool trace) {
    test::ClusterOptions o = fast_lan(4, 13);
    o.lan.jitter_ns = 500'000;
    o.trace = trace;
    Cluster c(o);
    auto cap = test::run_binary_consensus(c, {true, false, false, true});
    c.run_all();
    const Metrics m = c.total_metrics();
    return std::tuple(m.msgs_sent, m.bytes_sent, m.bc_coin_flips,
                      m.bc_rounds_total, c.now(), cap.got[0]);
  };
  EXPECT_EQ(fingerprint(false), fingerprint(true));
}

// --- variant-API golden traces ---------------------------------------------
// The pluggable-variant refactor (core/variants.h) must leave the default
// Bracha path bit-identical: same seed => the exact trace bytes the
// pre-variant stack produced. The constants below were captured from the
// last pre-refactor build (direct ReliableBroadcast/BinaryConsensus
// construction); the workloads replicate that capture verbatim.

std::uint64_t fnv1a(const Bytes& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Bytes golden_bc_trace(const VariantConfig& variants) {
  test::ClusterOptions o = fast_lan(4, 21);
  o.lan.jitter_ns = 500'000;
  o.trace = true;
  o.stack.variants = variants;
  Cluster c(o);
  const auto cap = test::run_binary_consensus(c, {true, false, true, false}, 0);
  c.run_all();
  return c.trace_bytes();
}

TEST(Determinism, DefaultVariantTraceMatchesPreRefactorGolden) {
  const Bytes t = golden_bc_trace(VariantConfig{});
  EXPECT_EQ(t.size(), 92808u);
  EXPECT_EQ(fnv1a(t), 0x1b098e5b449cce0dULL);
  // Selecting Bracha explicitly is the same configuration as the default.
  VariantConfig explicit_bracha;
  explicit_bracha.rb = RbVariant::kBracha;
  explicit_bracha.bc = BcVariant::kBracha;
  EXPECT_EQ(t, golden_bc_trace(explicit_bracha));
}

TEST(Determinism, DefaultVariantMvcTraceMatchesPreRefactorGolden) {
  // The MVC composite exercises RB + EB + BC children through the factory
  // seam in one run.
  test::ClusterOptions o = fast_lan(4, 3);
  o.trace = true;
  Cluster c(o);
  const auto cap = test::run_mvc(c, std::vector<Bytes>(4, to_bytes("m")), 0);
  c.run_all();
  const Bytes t = c.trace_bytes();
  EXPECT_EQ(t.size(), 132336u);
  EXPECT_EQ(fnv1a(t), 0x9bbd4d6f1d98da24ULL);
}

TEST(Determinism, NonDefaultVariantTracesAreDeterministicAndDistinct) {
  // Same seed => bit-identical run holds for every variant, and a variant
  // switch actually changes the wire activity.
  VariantConfig crain;
  crain.bc = BcVariant::kCrain;
  // Crain tosses the dealt common coin whatever coin_mode says
  // (tossed_coin); setting it changes nothing.
  auto crain_trace = [&] {
    test::ClusterOptions o = fast_lan(4, 21);
    o.lan.jitter_ns = 500'000;
    o.trace = true;
    o.stack.coin_mode = CoinMode::kDealt;
    o.stack.variants = crain;
    Cluster c(o);
    const auto cap =
        test::run_binary_consensus(c, {true, false, true, false}, 0);
    c.run_all();
    return c.trace_bytes();
  };
  const Bytes a = crain_trace();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, crain_trace());
  EXPECT_NE(a, golden_bc_trace(VariantConfig{}));
}

TEST(Determinism, ClusterMetricsAreStableAcrossRuns) {
  auto metrics_of = [](std::uint64_t seed) {
    test::ClusterOptions o = fast_lan(4, seed);
    Cluster c(o);
    auto cap = test::run_mvc(
        c, {to_bytes("m"), to_bytes("m"), to_bytes("m"), to_bytes("m")});
    const Metrics m = c.total_metrics();
    return std::tuple(m.msgs_sent, m.bytes_sent, m.rb_started_agreement,
                      m.eb_started_agreement, c.now());
  };
  EXPECT_EQ(metrics_of(3), metrics_of(3));
}

}  // namespace
}  // namespace ritas
