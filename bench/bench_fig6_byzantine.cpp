// Figure 6: atomic broadcast under the Byzantine faultload — one process
// permanently attacks the binary consensus (proposes 0) and multi-valued
// consensus (sends the default value in INIT and VECT) while still sending
// its share of the burst.
#include "burst_figure.h"

int main() {
  using namespace ritas::bench;
  // Paper values for burst = 1000: L_burst 1404/1576/2175/12347 ms and
  // T_max 711/634/460/81 msgs/s.
  const PaperReference ref{{1404, 1576, 2175, 12347}, {711, 634, 460, 81}};
  // The paper's headline: performance is basically immune to the attack.
  BurstResult ff, byz;
  double delta = 0;  // Byzantine vs failure-free latency, %
  const int rc = run_burst_figure(
      "Figure 6: atomic broadcast, Byzantine faultload (n=4, one attacker)",
      "fig6_byzantine", Faultload::kByzantine, ref, 1.0,
      [&](BenchReport& report) {
        ff = run_burst_avg(500, 100, Faultload::kFailureFree, bench_runs(3));
        byz = run_burst_avg(500, 100, Faultload::kByzantine, bench_runs(3));
        delta = (byz.latency_ms - ff.latency_ms) / ff.latency_ms * 100.0;
        report.gate("byzantine_latency_delta_pct_abs_k500", std::abs(delta),
                    "<", 10.0);
      });
  std::printf(
      "  Byzantine within 10%% of failure-free (k=500): %s (%.1f vs %.1f ms, "
      "%+.1f%%)\n",
      std::abs(delta) < 10.0 ? "PASS" : "FAIL", byz.latency_ms, ff.latency_ms,
      delta);
  return rc;
}
