// Figure 4: atomic broadcast burst latency and throughput, failure-free
// faultload, message sizes 10 B / 100 B / 1 KB / 10 KB.
#include "burst_figure.h"

int main() {
  using namespace ritas::bench;
  // Paper values for burst = 1000: L_burst 1386/1539/2150/12340 ms and
  // T_max 721/650/465/81 msgs/s.
  const PaperReference ref{{1386, 1539, 2150, 12340}, {721, 650, 465, 81}};
  // Batching must at least double sustained 10-byte throughput at the
  // largest burst (see docs/PROTOCOLS.md, "Batched AB_MSG framing").
  return run_burst_figure(
      "Figure 4: atomic broadcast, failure-free faultload (n=4)",
      "fig4_failure_free", Faultload::kFailureFree, ref, 2.0,
      [](BenchReport& report) {
        // Batched throughput is the headline tracked against baseline.
        report.compare(R"({"key":["burst","msg_bytes","batched"],)"
                       R"("where":{"batched":true},"fields":{)"
                       R"("throughput_msgs_s":)"
                       R"({"better":"higher","tolerance":0.2}}})");
      });
}
