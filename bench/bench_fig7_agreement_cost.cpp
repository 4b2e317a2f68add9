// Figure 7: relative cost of agreement — the fraction of all (reliable and
// echo) broadcasts spent running the agreement machinery, as a function of
// burst size. The paper reports ~92% at burst 4, dropping to 2.4% at 1000,
// with only two agreements needed per burst.
#include <cstdio>

#include "paper_harness.h"

int main() {
  using namespace ritas::bench;
  print_header(
      "Figure 7: relative cost of agreement vs burst size\n"
      "(n=4, 10-byte messages, failure-free)");

  const std::vector<std::uint32_t> bursts = {4,  8,   16,  32,  64,
                                             128, 256, 512, 1000};
  const int kRuns = bench_runs(3);
  std::printf("%-8s %18s %14s %12s\n", "burst", "agreement ratio", "(paper)",
              "AB rounds");

  BenchReport report("fig7");
  report.config("runs", kRuns);
  report.config("first_seed", 1000);
  report.config("n", 4);
  report.config("payload_bytes", 10);

  double first_ratio = 0, last_ratio = 0;
  std::uint64_t last_rounds = 0;
  for (std::uint32_t k : bursts) {
    const BurstResult r = run_burst_avg(k, 10, Faultload::kFailureFree, kRuns);
    const char* paper = k == 4 ? "~92%" : (k == 1000 ? "2.4%" : "");
    std::printf("%-8u %17.1f%% %14s %12llu\n", k, r.agreement_ratio * 100, paper,
                static_cast<unsigned long long>(r.ab_rounds));
    report.add_row([&](ritas::JsonWriter& w) {
      w.field("burst", k);
      w.field("agreement_ratio", r.agreement_ratio);
      w.field("ab_rounds", r.ab_rounds);
    });
    if (k == bursts.front()) first_ratio = r.agreement_ratio;
    if (k == bursts.back()) {
      last_ratio = r.agreement_ratio;
      last_rounds = r.ab_rounds;
    }
    std::fflush(stdout);
  }

  std::printf("\nshape checks:\n");
  const bool high_small =
      report.gate("agreement_ratio_burst4", first_ratio, ">", 0.8);
  const bool low_large =
      report.gate("agreement_ratio_burst1000", last_ratio, "<", 0.15);
  const bool few_agreements =
      report.gate("ab_rounds_burst1000", last_rounds, "<=", 8);
  std::printf("  small bursts dominated by agreement (>80%%)  : %s (%.1f%%)\n",
              high_small ? "PASS" : "FAIL", first_ratio * 100);
  std::printf("  large bursts amortize agreement (<15%%)      : %s (%.1f%%)\n",
              low_large ? "PASS" : "FAIL", last_ratio * 100);
  std::printf("  burst of 1000 needs only a handful of rounds: %s (%llu)\n",
              few_agreements ? "PASS" : "FAIL",
              static_cast<unsigned long long>(last_rounds));

  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(),
              wrote ? "PASS" : "FAIL");
  return wrote ? report.exit_code() : 1;
}
