// Table 1 of the paper: average latency for isolated executions of each
// protocol, with and without IPSec, and the IPSec overhead.
//
// Paper reference (4x Pentium III 500 MHz, 100 Mbps switch):
//   protocol                w/ IPSec   w/o IPSec   overhead
//   Echo Broadcast            1724        1497        15%
//   Reliable Broadcast        2134        1641        30%
//   Binary Consensus          8922        6816        30%
//   Multi-valued Consensus   16359       11186        46%
//   Vector Consensus         20673       15382        34%
//   Atomic Broadcast         23744       18604        27%
//
// Besides the printed table this emits BENCH_table1.json with the same
// numbers for CI tracking (see docs/OBSERVABILITY.md).
#include <cstdio>
#include <string>

#include "paper_harness.h"

namespace {

struct Row {
  ritas::bench::Proto proto;
  const char* key;
  double paper_with;
  double paper_without;
};

constexpr Row kRows[] = {
    {ritas::bench::Proto::kEB, "eb", 1724, 1497},
    {ritas::bench::Proto::kRB, "rb", 2134, 1641},
    {ritas::bench::Proto::kBC, "bc", 8922, 6816},
    {ritas::bench::Proto::kMVC, "mvc", 16359, 11186},
    {ritas::bench::Proto::kVC, "vc", 20673, 15382},
    {ritas::bench::Proto::kAB, "ab", 23744, 18604},
};

}  // namespace

int main() {
  using namespace ritas::bench;
  const int kIterations = bench_runs(100);  // the paper's N = 100

  print_header(
      "Table 1: average latency for isolated executions of each protocol\n"
      "(n=4, 10-byte payloads, 100 runs; simulated 100 Mbps LAN; all times us)");
  std::printf("%-24s %11s %11s %11s %11s %9s %9s\n", "protocol", "paper w/",
              "sim w/", "paper w/o", "sim w/o", "paper ovh", "sim ovh");

  BenchReport report("table1");
  report.config("seed", std::uint64_t{42});
  report.config("iterations", kIterations);
  report.config("n", 4);
  report.config("payload_bytes", 10);

  double prev_sim = 0;
  bool ordering_ok = true;
  for (const Row& row : kRows) {
    const double with = isolated_latency_us(row.proto, true, kIterations, 42);
    const double without = isolated_latency_us(row.proto, false, kIterations, 42);
    const double paper_ovh = (row.paper_with / row.paper_without - 1) * 100;
    const double sim_ovh = (with / without - 1) * 100;
    std::printf("%-24s %11.0f %11.0f %11.0f %11.0f %8.0f%% %8.0f%%\n",
                proto_name(row.proto), row.paper_with, with, row.paper_without,
                without, paper_ovh, sim_ovh);
    report.add_row([&](ritas::JsonWriter& w) {
      w.field("protocol", row.key);
      w.field("paper_with_ipsec_us", row.paper_with);
      w.field("sim_with_ipsec_us", with);
      w.field("paper_without_ipsec_us", row.paper_without);
      w.field("sim_without_ipsec_us", without);
      w.field("paper_overhead_pct", paper_ovh);
      w.field("sim_overhead_pct", sim_ovh);
    });
    if (row.proto != kRows[0].proto) {
      ordering_ok &= report.gate(std::string(row.key) + "_us_ge_previous",
                                 with, ">=", prev_sim);
    }
    prev_sim = with;
  }

  std::printf("\nshape checks:\n");
  std::printf("  stack ordering EB < RB < BC < MVC < VC < AB : %s\n",
              ordering_ok ? "PASS" : "FAIL");

  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(),
              wrote ? "PASS" : "FAIL");
  return wrote ? report.exit_code() : 1;
}
