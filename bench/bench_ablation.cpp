// Ablations of the design choices the paper calls out:
//
//   A. §2.5 optimization — echo broadcast instead of reliable broadcast for
//      the MVC VECT phase. We run Table-1-style MVC latencies and a burst
//      both ways to measure what the optimization buys.
//   B. §2.4 validation — the rule that "causes processes that do not follow
//      the protocol to be ignored". We disable it and attack the binary
//      consensus with a stubborn zero-sender to show the rounds (and coin
//      flips) it saves.
//   C. IPSec — Table 1's w/ vs w/o column, at the atomic broadcast level
//      and under load (the cost of channel integrity under throughput).
//   D. Coin — the paper's local coin vs a dealt common coin on split
//      proposals.
//
// Every arm is one row of BENCH_ablation.json (virtual time, tracked
// exactly against bench/baselines/), and each claim is a gate: echo beats
// reliable broadcast, validation keeps one-round agreement and disabling
// it costs safety, the dealt coin is no slower, and AH costs latency. Every
// run but the disabled-validation control also passes the shared property
// oracles (the `oracles` gate).
#include <cstdio>

#include "paper_harness.h"

namespace {

using namespace ritas;
using namespace ritas::bench;
using sim::Workload;

// Runs one binary consensus with a stubborn-zero Byzantine attacker and
// returns (sum of decided rounds at correct processes, coin flips).
struct BcAttackResult {
  double avg_rounds = 0;
  std::uint64_t coin_flips = 0;
  bool agreed = true;
  bool decided = true;
};

class StubbornZero : public Adversary {
 public:
  std::optional<bool> bc_proposal(bool) override { return false; }
  std::optional<std::uint8_t> bc_step_value(std::uint32_t, int,
                                            std::uint8_t) override {
    return 0;
  }
};

// Seeds and run counts of each ablation (recorded as the artifact config).
constexpr int kMvcIters = 50;
constexpr std::uint64_t kMvcSeed = 7;
constexpr std::uint32_t kBurst = 200;
constexpr std::size_t kBurstBytes = 100;
constexpr std::uint64_t kBurstSeed = 3;
constexpr int kAttackRuns = 10;
constexpr std::uint64_t kAttackFirstSeed = 500;
constexpr int kCoinRuns = 20;
constexpr std::uint64_t kCoinFirstSeed = 3000;
constexpr int kIpsecIters = 50;
constexpr std::uint64_t kIpsecSeed = 9;

/// One artifact row: the ablation, the arm, then the arm's figures.
void add_arm(BenchReport& report, const char* ablation, const char* arm,
             const std::function<void(JsonWriter&)>& fill) {
  report.add_row([&](JsonWriter& w) {
    w.field("ablation", ablation);
    w.field("arm", arm);
    fill(w);
  });
}

/// One stubborn-zero attack. The validation-on run is judged by the BC
/// oracles once quiesced; the disabled arm is the unsafe control, so its
/// violations are the `bc_validation_off_unsafe_runs` gate, not an oracle
/// failure.
BcAttackResult run_bc_attack(bool validation_enabled, std::uint64_t seed,
                             sim::oracle::Report& oracles) {
  ClusterOptions o;
  o.n = 4;
  o.seed = seed;
  o.lan = paper_lan(true);
  o.lan.jitter_ns = 150'000;
  o.stack.bc_disable_validation = !validation_enabled;
  o.byzantine = {3};
  o.adversary_factory = [] { return std::make_unique<StubbornZero>(); };
  Cluster c(o);

  // All correct processes propose 1.
  sim::LayerRun run(c, Workload::kBinaryConsensus, 1,
                    {.bits = std::vector<bool>(4, true)});
  const bool all = c.run_until([&] { return run.done(c.correct_set()); },
                               60 * sim::kSecond);

  BcAttackResult r;
  r.decided = all;
  std::uint64_t rounds = 0, decided = 0;
  for (ProcessId p : c.correct_set()) {
    rounds += c.stack(p).metrics().bc_rounds_total;
    decided += c.stack(p).metrics().bc_decided;
    r.coin_flips += c.stack(p).metrics().bc_coin_flips;
    if (run.bits()[p] != run.bits()[0]) r.agreed = false;
  }
  r.avg_rounds = decided > 0 ? static_cast<double>(rounds) / decided : 0;
  if (validation_enabled) {
    c.run_all();
    run.check(oracles, c.correct_set(), /*complete=*/true);
  }
  return r;
}

}  // namespace

int main() {
  BenchReport report("ablation");
  report.config("mvc_iters", kMvcIters);
  report.config("mvc_seed", kMvcSeed);
  report.config("burst", kBurst);
  report.config("burst_msg_bytes", static_cast<std::uint64_t>(kBurstBytes));
  report.config("burst_seed", kBurstSeed);
  report.config("attack_runs", kAttackRuns);
  report.config("attack_first_seed", kAttackFirstSeed);
  report.config("coin_runs", kCoinRuns);
  report.config("coin_first_seed", kCoinFirstSeed);
  report.config("ipsec_iters", kIpsecIters);
  report.config("ipsec_seed", kIpsecSeed);
  // Every figure is virtual time or a count: exact against the baseline.
  report.compare(
      R"({"key":["ablation","arm"],"fields":{)"
      R"("mvc_latency_us":{"exact":true},"ab_latency_us":{"exact":true},)"
      R"("burst_latency_ms":{"exact":true},"avg_rounds":{"exact":true},)"
      R"("coin_flips":{"exact":true},"undecided_runs":{"exact":true},)"
      R"("disagreed_runs":{"exact":true}}})");

  sim::oracle::Report oracles;
  print_header("Ablation A: echo vs reliable broadcast in the MVC VECT phase");
  {
    StackConfig eb_cfg, rb_cfg;
    rb_cfg.mvc_vect_via_rb = true;
    const auto latency = [&](Workload w, const StackConfig& cfg) {
      return isolated_latency_us(w, true, kMvcIters, kMvcSeed, oracles, cfg);
    };
    const double mvc_eb = latency(Workload::kMultiValuedConsensus, eb_cfg);
    const double mvc_rb = latency(Workload::kMultiValuedConsensus, rb_cfg);
    const double ab_eb = latency(Workload::kAtomicBroadcast, eb_cfg);
    const double ab_rb = latency(Workload::kAtomicBroadcast, rb_cfg);
    std::printf("%-32s %12s %12s %9s\n", "metric", "echo (paper)", "reliable",
                "saving");
    std::printf("%-32s %12.0f %12.0f %8.1f%%\n", "MVC isolated latency (us)",
                mvc_eb, mvc_rb, (mvc_rb / mvc_eb - 1) * 100);
    std::printf("%-32s %12.0f %12.0f %8.1f%%\n", "AB isolated latency (us)",
                ab_eb, ab_rb, (ab_rb / ab_eb - 1) * 100);
    const BurstResult b_eb = run_burst(kBurst, kBurstBytes,
                                       Faultload::kFailureFree, kBurstSeed, eb_cfg);
    const BurstResult b_rb = run_burst(kBurst, kBurstBytes,
                                       Faultload::kFailureFree, kBurstSeed, rb_cfg);
    merge(oracles, b_eb.oracles);
    merge(oracles, b_rb.oracles);
    std::printf("%-32s %12.1f %12.1f %8.1f%%\n", "AB burst k=200 latency (ms)",
                b_eb.latency_ms, b_rb.latency_ms,
                (b_rb.latency_ms / b_eb.latency_ms - 1) * 100);
    std::printf("=> the paper's echo-broadcast optimization is %s\n",
                mvc_rb > mvc_eb ? "confirmed (echo is faster)" : "NOT confirmed");
    const auto arm = [&](const char* name, double mvc, double ab,
                         const BurstResult& b) {
      add_arm(report, "mvc_vect", name, [&](JsonWriter& w) {
        w.field("mvc_latency_us", mvc);
        w.field("ab_latency_us", ab);
        w.field("burst_latency_ms", b.latency_ms);
      });
    };
    arm("echo", mvc_eb, ab_eb, b_eb);
    arm("reliable", mvc_rb, ab_rb, b_rb);
    report.gate("mvc_vect_echo_lt_reliable_mvc_latency_us", mvc_eb, "<",
                mvc_rb);
    report.gate("mvc_vect_echo_lt_reliable_burst_latency_ms", b_eb.latency_ms,
                "<", b_rb.latency_ms);
  }

  print_header(
      "Ablation B: binary consensus validation under a stubborn-zero attack\n"
      "(all correct processes propose 1; attacker floods 0 at every step)");
  {
    struct Arm {
      double rounds = 0;
      std::uint64_t flips = 0;
      int undecided = 0, disagreed = 0;
      void add(const BcAttackResult& r) {
        rounds += r.avg_rounds / kAttackRuns;
        flips += r.coin_flips;
        if (!r.decided) ++undecided;
        if (!r.agreed) ++disagreed;
      }
    } on, off;
    for (int i = 0; i < kAttackRuns; ++i) {
      const std::uint64_t seed = kAttackFirstSeed + static_cast<std::uint64_t>(i);
      on.add(run_bc_attack(true, seed, oracles));
      off.add(run_bc_attack(false, seed, oracles));
    }
    std::printf("%-36s %12s %12s\n", "metric", "validation", "disabled");
    std::printf("%-36s %12.2f %12.2f\n", "avg rounds to decide", on.rounds,
                off.rounds);
    std::printf("%-36s %12llu %12llu\n", "coin flips (10 runs)",
                static_cast<unsigned long long>(on.flips),
                static_cast<unsigned long long>(off.flips));
    std::printf("%-36s %12d %12d\n", "runs without full decision",
                on.undecided, off.undecided);
    std::printf("%-36s %12d %12d\n", "runs with disagreement", on.disagreed,
                off.disagreed);
    std::printf("=> validation keeps one-round decisions under attack: %s\n",
                on.rounds <= 1.01 ? "PASS" : "FAIL");
    const auto arm = [&](const char* name, const Arm& a) {
      add_arm(report, "bc_validation", name, [&](JsonWriter& w) {
        w.field("avg_rounds", a.rounds);
        w.field("coin_flips", a.flips);
        w.field("undecided_runs", a.undecided);
        w.field("disagreed_runs", a.disagreed);
      });
    };
    arm("on", on);
    arm("off", off);
    report.gate("bc_validation_on_avg_rounds", on.rounds, "<=", 1.01);
    report.gate("bc_validation_on_undecided_runs", on.undecided, "==", 0);
    report.gate("bc_validation_on_disagreed_runs", on.disagreed, "==", 0);
    // Safety-critical, not an optimization: without it some run either
    // never decides or decides differently.
    report.gate("bc_validation_off_unsafe_runs", off.undecided + off.disagreed,
                ">=", 1);
  }

  print_header(
      "Ablation D: local coin (paper) vs dealt common coin (Rabin-style)\n"
      "(n=5 so n-f is even and the coin path is reachable; adversarial\n"
      " clique skew + split proposals)");
  {
    auto rounds_with = [&oracles](CoinMode mode) {
      double avg = 0;
      std::uint64_t flips = 0;
      for (int i = 0; i < kCoinRuns; ++i) {
        ClusterOptions o;
        o.n = 5;
        o.seed = kCoinFirstSeed + static_cast<std::uint64_t>(i);
        o.lan = paper_lan(true);
        o.lan.jitter_ns = 900'000;
        o.stack.coin_mode = mode;
        Cluster c(o);
        c.network().set_delay_policy(
            [](ProcessId from, ProcessId to, sim::Time) {
              const bool cross = (from < 2) != (to < 2);
              return cross ? 2 * sim::kMillisecond : 0;
            });
        sim::LayerRun run(c, Workload::kBinaryConsensus, 1,
                          {.bits = {true, true, false, false, true}});
        c.run_until([&] { return run.done(c.correct_set()); },
                    120 * sim::kSecond);
        const Metrics m = c.total_metrics();
        if (m.bc_decided > 0) {
          avg += static_cast<double>(m.bc_rounds_total) /
                 static_cast<double>(m.bc_decided) / kCoinRuns;
        }
        flips += m.bc_coin_flips;
        c.run_all();
        run.check(oracles, c.correct_set(), /*complete=*/true);
      }
      return std::pair<double, std::uint64_t>(avg, flips);
    };
    const auto [local_rounds, local_flips] = rounds_with(CoinMode::kLocal);
    const auto [dealt_rounds, dealt_flips] = rounds_with(CoinMode::kDealt);
    std::printf("%-28s %12s %12s\n", "metric", "local coin", "dealt coin");
    std::printf("%-28s %12.2f %12.2f\n", "avg rounds to decide", local_rounds,
                dealt_rounds);
    std::printf("%-28s %12llu %12llu\n", "coin flips (20 runs)",
                static_cast<unsigned long long>(local_flips),
                static_cast<unsigned long long>(dealt_flips));
    std::printf("=> a common coin converges at least as fast: %s\n",
                dealt_rounds <= local_rounds + 0.05 ? "PASS" : "FAIL");
    add_arm(report, "coin", "local", [&](JsonWriter& w) {
      w.field("avg_rounds", local_rounds);
      w.field("coin_flips", local_flips);
    });
    add_arm(report, "coin", "dealt", [&](JsonWriter& w) {
      w.field("avg_rounds", dealt_rounds);
      w.field("coin_flips", dealt_flips);
    });
    report.gate("coin_dealt_rounds_le_local", dealt_rounds, "<=",
                local_rounds + 0.05);
  }

  print_header("Ablation C: IPSec AH under load (atomic broadcast burst)");
  {
    // run_burst always uses ipsec=true; emulate the w/o case via the
    // latency harness at the AB level plus Table 1's isolated columns.
    const double ab_with = isolated_latency_us(
        Workload::kAtomicBroadcast, true, kIpsecIters, kIpsecSeed, oracles);
    const double ab_without = isolated_latency_us(
        Workload::kAtomicBroadcast, false, kIpsecIters, kIpsecSeed, oracles);
    std::printf("AB isolated latency: %0.0f us with AH, %0.0f us without "
                "(+%.1f%%; paper: +27%%)\n",
                ab_with, ab_without, (ab_with / ab_without - 1) * 100);
    add_arm(report, "ipsec", "with_ah",
            [&](JsonWriter& w) { w.field("ab_latency_us", ab_with); });
    add_arm(report, "ipsec", "without_ah",
            [&](JsonWriter& w) { w.field("ab_latency_us", ab_without); });
    report.gate("ipsec_ab_latency_us_gt_without", ab_with, ">", ab_without);
  }
  report.oracles(oracles);
  if (!report.write()) {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  return report.exit_code();
}
