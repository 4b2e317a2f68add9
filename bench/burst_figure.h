// Shared driver for Figures 4, 5 and 6 (atomic broadcast burst latency and
// throughput under one faultload, for four message sizes).
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "paper_harness.h"

namespace ritas::bench {

struct PaperReference {
  // Paper values at burst = 1000 for m = 10 / 100 / 1K / 10K.
  double latency_ms[4];
  double tmax_msgs_s[4];
};

/// Sweeps the burst grid twice — with atomic-broadcast payload batching
/// off (the paper's configuration) and on — and records both modes in one
/// BENCH_<name>.json (rows carry a "batched" flag). `min_speedup_10b` is
/// the required batched/unbatched throughput ratio at the largest burst
/// with 10-byte messages (1.0 = "no slower"). `extend` adds the figure's
/// own gates or baseline spec before the artifact is written. Returns the
/// exit status: 1 if any gate failed.
inline int run_burst_figure(
    const char* title, const char* report_name, Faultload fl,
    const PaperReference& ref, double min_speedup_10b = 1.0,
    const std::function<void(BenchReport&)>& extend = {}) {
  const std::size_t sizes[4] = {10, 100, 1000, 10000};
  const std::vector<std::uint32_t> bursts = {4, 10, 20, 50, 100, 200, 500, 1000};
  // The paper used 10 runs; the deterministic sim needs fewer, and the CI
  // smoke job caps it to 3 via RITAS_BENCH_RUNS.
  const int kRuns = bench_runs(3);

  StackConfig cfgs[2];  // [0] = unbatched (paper), [1] = batched
  cfgs[1].ab_batch.enabled = true;
  const char* mode_name[2] = {"unbatched", "batched"};

  print_header(title);

  BenchReport report(report_name);
  report.config("faultload", faultload_name(fl));
  report.config("runs", kRuns);
  report.config("first_seed", 1000);
  report.config("n", 4);

  BurstResult last[2][4];
  bool one_round[2] = {true, true}, no_default[2] = {true, true};
  for (int mode = 0; mode < 2; ++mode) {
    std::printf("\n[%s]\n%-8s", mode_name[mode], "burst");
    for (std::size_t m : sizes) {
      std::printf("  | m=%-5zu lat(ms) thr(msg/s)", m);
    }
    std::printf("\n");
    for (std::uint32_t k : bursts) {
      std::printf("%-8u", k);
      for (int i = 0; i < 4; ++i) {
        const BurstResult r = run_burst_avg(k, sizes[i], fl, kRuns, cfgs[mode]);
        std::printf("  | %8.1f %10.0f          ", r.latency_ms, r.throughput_msgs_s);
        last[mode][i] = r;
        one_round[mode] = one_round[mode] && r.bc_always_one_round;
        no_default[mode] = no_default[mode] && r.mvc_never_default;
        report.add_row([&](JsonWriter& w) {
          w.field("batched", mode == 1);
          w.field("burst", k);
          w.field("msg_bytes", static_cast<std::uint64_t>(sizes[i]));
          w.field("latency_ms", r.latency_ms);
          w.field("throughput_msgs_s", r.throughput_msgs_s);
          w.field("agreement_ratio", r.agreement_ratio);
          w.field("ab_rounds", r.ab_rounds);
        });
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }

  std::printf("\nburst=1000 vs paper (unbatched):\n");
  std::printf("%-8s %14s %14s %16s %16s\n", "m", "paper lat(ms)", "sim lat(ms)",
              "paper Tmax", "sim Tmax");
  bool monotone_tmax = true;
  for (int i = 0; i < 4; ++i) {
    std::printf("%-8zu %14.0f %14.1f %16.0f %16.0f\n", sizes[i],
                ref.latency_ms[i], last[0][i].latency_ms, ref.tmax_msgs_s[i],
                last[0][i].throughput_msgs_s);
    if (i > 0) {
      monotone_tmax &= report.gate("latency_grows_m" + std::to_string(sizes[i]),
                                   last[0][i].latency_ms, ">=",
                                   last[0][i - 1].latency_ms);
    }
  }

  std::printf("\nburst=1000 batching speedup (Tmax batched / unbatched):\n");
  double speedup[4];
  for (int i = 0; i < 4; ++i) {
    speedup[i] = last[0][i].throughput_msgs_s > 0
                     ? last[1][i].throughput_msgs_s / last[0][i].throughput_msgs_s
                     : 0;
    std::printf("%-8zu %6.2fx (%.0f -> %.0f msgs/s)\n", sizes[i], speedup[i],
                last[0][i].throughput_msgs_s, last[1][i].throughput_msgs_s);
    report.gate("batched_ge_unbatched_m" + std::to_string(sizes[i]),
                last[1][i].throughput_msgs_s, ">=",
                last[0][i].throughput_msgs_s);
  }
  const bool batched_fast_enough =
      report.gate("batched_speedup_m10", speedup[0], ">=", min_speedup_10b);
  for (int mode = 0; mode < 2; ++mode) {
    report.gate(std::string("bc_always_one_round_") + mode_name[mode],
                one_round[mode]);
    report.gate(std::string("mvc_never_default_") + mode_name[mode],
                no_default[mode]);
  }

  std::printf("\nshape checks (%s faultload):\n", faultload_name(fl));
  std::printf("  latency grows with message size            : %s\n",
              monotone_tmax ? "PASS" : "FAIL");
  std::printf("  binary consensus always decided in 1 round : %s, batched %s\n",
              one_round[0] ? "PASS" : "FAIL", one_round[1] ? "PASS" : "FAIL");
  std::printf("  multi-valued consensus never decided bottom: %s, batched %s\n",
              no_default[0] ? "PASS" : "FAIL", no_default[1] ? "PASS" : "FAIL");
  std::printf("  batched Tmax >= %.1fx unbatched (m=10)      : %s\n",
              min_speedup_10b, batched_fast_enough ? "PASS" : "FAIL");

  if (extend) extend(report);
  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(),
              wrote ? "PASS" : "FAIL");
  return wrote ? report.exit_code() : 1;
}

}  // namespace ritas::bench
