// Property sweeps: the protocol-stack invariants, checked over a matrix of
// group size x faultload x seed with randomized delivery schedules. These
// are the properties the paper's §2 definitions promise:
//
//   BC : agreement, validity (unanimous input decides that input),
//        termination.
//   MVC: agreement, decision is a proposed value or ⊥, termination.
//   VC : agreement on one vector, entry i is p_i's proposal or ⊥, at least
//        f+1 entries from correct processes.
//   AB : agreement (prefix-identical delivery sequences), validity (every
//        correct broadcast eventually delivered), integrity (no
//        duplicates, no inventions).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/imbs_raynal_broadcast.h"
#include "sim/oracles.h"
#include "sim_helpers.h"

namespace ritas {
namespace {

using test::Cluster;
using test::fast_lan;
using test::kDeadline;

enum class Fault { kNone, kCrash, kByzantine, kCrashAndByzantine };

struct Params {
  std::uint32_t n;
  Fault fault;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const char* f = "";
  switch (info.param.fault) {
    case Fault::kNone: f = "ok"; break;
    case Fault::kCrash: f = "crash"; break;
    case Fault::kByzantine: f = "byz"; break;
    case Fault::kCrashAndByzantine: f = "crashbyz"; break;
  }
  return "n" + std::to_string(info.param.n) + "_" + f + "_s" +
         std::to_string(info.param.seed);
}

test::ClusterOptions options_for(const Params& p) {
  test::ClusterOptions o = fast_lan(p.n, 5000 + p.seed * 131 + p.n);
  o.lan.jitter_ns = 400'000;
  const std::uint32_t f = max_faults(p.n);
  switch (p.fault) {
    case Fault::kNone:
      break;
    case Fault::kCrash:
      for (std::uint32_t i = 0; i < f; ++i) o.crashed.push_back(p.n - 1 - i);
      break;
    case Fault::kByzantine:
      for (std::uint32_t i = 0; i < f; ++i) o.byzantine.push_back(p.n - 1 - i);
      break;
    case Fault::kCrashAndByzantine:
      // Split the fault budget (needs f >= 2).
      o.crashed.push_back(p.n - 1);
      for (std::uint32_t i = 1; i < f; ++i) o.byzantine.push_back(p.n - 1 - i);
      break;
  }
  return o;
}

class StackProperties : public ::testing::TestWithParam<Params> {};

TEST_P(StackProperties, BinaryConsensus) {
  Cluster c(options_for(GetParam()));
  std::vector<bool> proposals(c.n());
  // Seed-dependent proposal pattern, including splits.
  for (ProcessId p = 0; p < c.n(); ++p) {
    proposals[p] = ((GetParam().seed + p) % 3) != 0;
  }
  auto cap = test::run_binary_consensus(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_bc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
}

TEST_P(StackProperties, MultiValuedConsensus) {
  Cluster c(options_for(GetParam()));
  std::vector<Bytes> proposals(c.n());
  // Two camps of proposals.
  for (ProcessId p = 0; p < c.n(); ++p) {
    proposals[p] = to_bytes(((GetParam().seed + p) % 2) ? "camp-A" : "camp-B");
  }
  auto cap = test::run_mvc(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_mvc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
}

TEST_P(StackProperties, VectorConsensus) {
  Cluster c(options_for(GetParam()));
  std::vector<Bytes> proposals(c.n());
  for (ProcessId p = 0; p < c.n(); ++p) {
    proposals[p] = to_bytes("vc-" + std::to_string(p));
  }
  auto cap = test::run_vc(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_vc(rep, c.correct_set(), proposals, cap.got,
                        max_faults(c.n()));
  EXPECT_TRUE(rep.ok()) << rep.text();
}

TEST_P(StackProperties, AtomicBroadcast) {
  Cluster c(options_for(GetParam()));
  test::AbGroup g(c);
  const std::uint32_t kPer = 3;
  for (std::uint32_t i = 0; i < kPer; ++i) {
    for (ProcessId p : c.live()) {
      g.send(p, to_bytes("m" + std::to_string(p) + "." + std::to_string(i)));
    }
  }
  // Validity: everything the CORRECT processes broadcast must arrive at
  // every correct process (Byzantine senders' messages may or may not).
  ASSERT_TRUE(c.run_until(
      [&] { return g.recorder().all_delivered(c.correct_set()); }, kDeadline))
      << "validity/termination";
  c.run_all();

  const auto rep = g.check(c.correct_set());
  EXPECT_TRUE(rep.ok()) << rep.text();
}

std::vector<Params> make_matrix() {
  std::vector<Params> out;
  for (std::uint32_t n : {4u, 7u}) {
    for (Fault f : {Fault::kNone, Fault::kCrash, Fault::kByzantine}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        out.push_back({n, f, seed});
      }
    }
  }
  // Mixed faults need f >= 2, i.e. n >= 7.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    out.push_back({7, Fault::kCrashAndByzantine, seed});
  }
  // One bigger group as a smoke-scale point.
  out.push_back({10, Fault::kByzantine, 0});
  out.push_back({10, Fault::kCrash, 0});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, StackProperties, ::testing::ValuesIn(make_matrix()),
                         param_name);

// --- per-variant battery ----------------------------------------------------
// The same §2 oracles, run against every non-default protocol-variant
// combination (core/variants.h). The fault budget respects the weakest
// layer: Imbs–Raynal RB tolerates only t = (n-1)/5, so a mixed stack gets
// min(f, (n-1)/5) faults; Crain BC requires the dealt common coin.

// Padding-free: gtest prints the raw bytes of an unprintable parameter
// into the test name, so padding would leak uninitialised bytes there.
struct VariantParams {
  RbVariant rb;
  BcVariant bc;
  std::uint16_t n;
  Fault fault;
  std::uint64_t seed;
  std::uint64_t sim_seed;  // simulator seed derived from (seed, n)
};
static_assert(sizeof(VariantParams) == 24, "VariantParams must have no padding");

std::uint32_t variant_fault_budget(RbVariant rb, std::uint32_t n) {
  std::uint32_t f = max_faults(n);
  if (rb == RbVariant::kImbsRaynal) {
    f = std::min(f, ImbsRaynalBroadcast::max_faults_ir(n));
  }
  return f;
}

std::string variant_param_name(
    const ::testing::TestParamInfo<VariantParams>& info) {
  const char* f = "";
  switch (info.param.fault) {
    case Fault::kNone: f = "ok"; break;
    case Fault::kCrash: f = "crash"; break;
    case Fault::kByzantine: f = "byz"; break;
    case Fault::kCrashAndByzantine: f = "crashbyz"; break;
  }
  std::string rb = rb_variant_name(info.param.rb);
  std::string bc = bc_variant_name(info.param.bc);
  rb.erase(std::remove(rb.begin(), rb.end(), '-'), rb.end());
  return rb + "_" + bc + "_n" + std::to_string(info.param.n) + "_" + f +
         "_s" + std::to_string(info.param.seed);
}

test::ClusterOptions options_for_variant(const VariantParams& p) {
  test::ClusterOptions o = fast_lan(p.n, p.sim_seed);
  o.lan.jitter_ns = 400'000;
  o.stack.variants.rb = p.rb;
  o.stack.variants.bc = p.bc;
  if (p.bc == BcVariant::kCrain) o.stack.coin_mode = CoinMode::kDealt;
  const std::uint32_t f = variant_fault_budget(p.rb, p.n);
  switch (p.fault) {
    case Fault::kNone:
      break;
    case Fault::kCrash:
      for (std::uint32_t i = 0; i < f; ++i) o.crashed.push_back(p.n - 1 - i);
      break;
    case Fault::kByzantine:
      for (std::uint32_t i = 0; i < f; ++i) o.byzantine.push_back(p.n - 1 - i);
      break;
    case Fault::kCrashAndByzantine:
      o.crashed.push_back(p.n - 1);
      for (std::uint32_t i = 1; i < f; ++i) o.byzantine.push_back(p.n - 1 - i);
      break;
  }
  return o;
}

class VariantProperties : public ::testing::TestWithParam<VariantParams> {};

TEST_P(VariantProperties, BinaryConsensus) {
  Cluster c(options_for_variant(GetParam()));
  std::vector<bool> proposals(c.n());
  for (ProcessId p = 0; p < c.n(); ++p) {
    proposals[p] = ((GetParam().seed + p) % 3) != 0;
  }
  auto cap = test::run_binary_consensus(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_bc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
}

TEST_P(VariantProperties, MultiValuedConsensus) {
  // The MVC composite drives the variant RB (INIT children) and the
  // variant BC through one protocol.
  Cluster c(options_for_variant(GetParam()));
  std::vector<Bytes> proposals(c.n());
  for (ProcessId p = 0; p < c.n(); ++p) {
    proposals[p] = to_bytes(((GetParam().seed + p) % 2) ? "camp-A" : "camp-B");
  }
  auto cap = test::run_mvc(c, proposals);
  sim::oracle::Report rep;
  sim::oracle::check_mvc(rep, c.correct_set(), proposals, cap.got);
  EXPECT_TRUE(rep.ok()) << rep.text();
}

TEST_P(VariantProperties, ReliableBroadcast) {
  // Agreement / integrity (correct origin's payload only) / totality for
  // the configured RB variant. The origin is always correct here; the
  // equivocating-origin case has its own test below.
  Cluster c(options_for_variant(GetParam()));
  test::DeliveryLog log(c.n());
  const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  std::vector<RbAlgorithm*> rb(c.n(), nullptr);
  for (ProcessId p : c.live()) {
    rb[p] = &c.create_rb(p, id, 0, Attribution::kPayload, log.sink(p));
  }
  const Bytes m = to_bytes("variant-rb-" + std::to_string(GetParam().seed));
  c.call(0, [&] { rb[0]->bcast(Bytes(m)); });
  ASSERT_TRUE(
      c.run_until([&] { return log.everyone_has(c.correct_set(), 1); }, kDeadline));
  c.run_all();
  for (ProcessId p : c.correct_set()) {
    ASSERT_EQ(log.by_process[p].size(), 1u);
    EXPECT_EQ(log.by_process[p][0], m);
  }
}

std::vector<VariantParams> make_variant_matrix() {
  std::vector<VariantParams> out;
  const std::pair<RbVariant, BcVariant> combos[] = {
      {RbVariant::kImbsRaynal, BcVariant::kBracha},
      {RbVariant::kBracha, BcVariant::kCrain},
      {RbVariant::kImbsRaynal, BcVariant::kCrain},
  };
  for (const auto& [rb, bc] : combos) {
    for (Fault f : {Fault::kNone, Fault::kCrash, Fault::kByzantine}) {
      for (std::uint64_t seed = 0; seed < 2; ++seed) {
        out.push_back({rb, bc, 6, f, seed, 7000 + seed * 131 + 6});
      }
    }
    // One point with slack between n and the IR bound (t = 1 at n = 7).
    out.push_back({rb, bc, 7, Fault::kByzantine, 0, 7000 + 7});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(VariantMatrix, VariantProperties,
                         ::testing::ValuesIn(make_variant_matrix()),
                         variant_param_name);

TEST(VariantProperties, ImbsRaynalEquivocatingOriginKeepsAgreement) {
  // A Byzantine origin equivocates (even peers get one payload, odd peers
  // another). Whatever subset of correct processes delivers, they must all
  // deliver the SAME payload (agreement), and if any correct process
  // delivers, all must (totality) — the witness-switch rule's job.
  std::size_t runs_with_delivery = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    test::ClusterOptions o = fast_lan(6, 9100 + seed);
    o.lan.jitter_ns = 400'000;
    o.stack.variants.rb = RbVariant::kImbsRaynal;
    o.byzantine = {0};
    o.adversary_factory = [] {
      return std::make_unique<EquivocationAdversary>(to_bytes("evil"));
    };
    Cluster c(o);
    test::DeliveryLog log(c.n());
    const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
    std::vector<RbAlgorithm*> rb(c.n(), nullptr);
    for (ProcessId p : c.live()) {
      rb[p] = &c.create_rb(p, id, 0, Attribution::kPayload, log.sink(p));
    }
    c.call(0, [&] { rb[0]->bcast(to_bytes("good")); });
    c.run_all();
    std::vector<std::optional<Bytes>> delivered(c.n());
    for (ProcessId p : c.correct_set()) {
      ASSERT_LE(log.by_process[p].size(), 1u);
      if (!log.by_process[p].empty()) delivered[p] = log.by_process[p][0];
    }
    for (ProcessId p : c.correct_set()) {
      if (delivered[p].has_value()) ++runs_with_delivery;
    }
    sim::oracle::Report rep;
    sim::oracle::broadcast_agreement(rep, c.correct_set(), delivered, "rb");
    sim::oracle::rb_totality(rep, c.correct_set(), delivered);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.text();
  }
  // With the even/odd 3-3 split at n = 6 neither payload can reach the
  // n - 2t = 4 witness quorum (3 witnesses each, Byzantine origin
  // included), so the instance must stall: zero deliveries, on every
  // schedule. A Byzantine origin owes no validity, only agreement.
  EXPECT_EQ(runs_with_delivery, 0u);
}

TEST(VariantProperties, ImbsRaynalWitnessSwitchGivesTotality) {
  // The victim case the witness-switch rule exists for: the origin omits
  // INIT (and its own WITNESS) to one process. The victim must cross the
  // n - 2t relay quorum on other processes' witnesses alone — without the
  // rule it sits one witness short of the n - t delivery quorum forever
  // while everyone else delivers, a totality violation.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    test::ClusterOptions o = fast_lan(6, 9700 + seed);
    o.lan.jitter_ns = 400'000;
    o.stack.variants.rb = RbVariant::kImbsRaynal;
    o.byzantine = {0};
    o.adversary_factory = [] {
      return std::make_unique<SelectiveOmissionAdversary>(1ull << 5);
    };
    Cluster c(o);
    test::DeliveryLog log(c.n());
    const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
    std::vector<RbAlgorithm*> rb(c.n(), nullptr);
    for (ProcessId p : c.live()) {
      rb[p] = &c.create_rb(p, id, 0, Attribution::kPayload, log.sink(p));
    }
    const Bytes m = to_bytes("good");
    c.call(0, [&] { rb[0]->bcast(Bytes(m)); });
    c.run_all();
    for (ProcessId p : c.correct_set()) {
      ASSERT_EQ(log.by_process[p].size(), 1u)
          << "seed " << seed << ": process " << p << " did not deliver";
      EXPECT_EQ(log.by_process[p][0], m) << "seed " << seed;
    }
  }
}

TEST(VariantProperties, InvalidVariantCombinationsAreRejected) {
  // Imbs–Raynal needs n > 5t with t >= 1, i.e. n >= 6.
  {
    test::ClusterOptions o = fast_lan(4, 1);
    o.stack.variants.rb = RbVariant::kImbsRaynal;
    EXPECT_THROW(Cluster c(o), std::invalid_argument);
  }
  // Crain without the dealt common coin can violate agreement.
  {
    test::ClusterOptions o = fast_lan(4, 1);
    o.stack.variants.bc = BcVariant::kCrain;
    EXPECT_THROW(Cluster c(o), std::invalid_argument);
  }
  // The same selections are fine once the preconditions hold.
  {
    test::ClusterOptions o = fast_lan(6, 1);
    o.stack.variants.rb = RbVariant::kImbsRaynal;
    o.stack.variants.bc = BcVariant::kCrain;
    o.stack.coin_mode = CoinMode::kDealt;
    EXPECT_NO_THROW(Cluster c(o));
  }
}

}  // namespace
}  // namespace ritas
