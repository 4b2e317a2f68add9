// Figure 5: atomic broadcast under the fail-stop faultload (one process
// crashed before the run; remaining n-1 senders send burst/(n-1) each).
#include "burst_figure.h"

int main() {
  using namespace ritas::bench;
  // Paper values for burst = 1000: L_burst 988/1164/1607/8655 ms and
  // T_max 858/621/834/115 msgs/s.
  const PaperReference ref{{988, 1164, 1607, 8655}, {858, 621, 834, 115}};
  // Extra shape check: the paper found fail-stop *faster* than failure-free
  // (fewer processes -> less contention). Compare one representative point.
  BurstResult ff, fs;
  const int rc = run_burst_figure(
      "Figure 5: atomic broadcast, fail-stop faultload (n=4, one crashed)",
      "fig5_fail_stop", Faultload::kFailStop, ref, 1.0,
      [&](BenchReport& report) {
        ff = run_burst_avg(500, 100, Faultload::kFailureFree, bench_runs(3));
        fs = run_burst_avg(500, 100, Faultload::kFailStop, bench_runs(3));
        report.gate("fail_stop_latency_ms_lt_failure_free_k500", fs.latency_ms,
                    "<", ff.latency_ms);
      });
  std::printf("  fail-stop faster than failure-free (k=500) : %s (%.1f vs %.1f ms)\n",
              fs.latency_ms < ff.latency_ms ? "PASS" : "FAIL", fs.latency_ms,
              ff.latency_ms);
  return rc;
}
