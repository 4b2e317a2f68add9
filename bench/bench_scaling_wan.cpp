// Beyond the testbed: the large-n / WAN scaling campaign (ROADMAP item 3).
//
// The paper stops at n = 4 on one switch and measures closed-loop bursts.
// This bench asks the production question instead: with an OPEN-loop
// Poisson client stream (arrivals never wait for the service), what
// delivery-latency tail does the stack show as the group grows to n = 16
// (n = 31 env-gated), as the network turns into an asymmetric WAN, and
// under the two headline faultloads — kill_link churn and the §4.2
// Byzantine attack?
//
// All numbers are virtual-time (machine-independent): same seed =>
// bit-identical rows, which is what lets CI diff the committed baseline.
//
// Env knobs:
//   RITAS_SCALING_SMOKE=1  trim to n in {4, 7} (CI scaling-smoke job)
//   RITAS_SCALING_N31=1    add the n = 31 column (slow)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "paper_harness.h"
#include "sim/campaign.h"

namespace {

using namespace ritas;
using namespace ritas::bench;
using sim::CampaignFault;
using sim::CampaignOptions;
using sim::CampaignResult;
using sim::NetProfile;

/// Per-cell seed derived from the cell key, NOT a loop index: a trimmed
/// smoke sweep reproduces the exact rows of the full sweep.
std::uint64_t cell_seed(std::uint32_t n, NetProfile net, CampaignFault fault) {
  std::uint64_t st = 0x5ca11a6000000000ull ^ (std::uint64_t{n} << 16) ^
                     (std::uint64_t(static_cast<std::uint8_t>(net)) << 8) ^
                     std::uint64_t(static_cast<std::uint8_t>(fault));
  return splitmix64(st);
}

CampaignOptions cell_options(std::uint32_t n, NetProfile net,
                             CampaignFault fault) {
  CampaignOptions o;
  o.n = n;
  o.net = net;
  o.fault = fault;
  o.seed = cell_seed(n, net, fault);
  // Offered load shrinks with n so the full matrix stays tractable: the
  // per-op protocol cost grows ~n^2 and every correct process is a
  // front-end, so this still exercises genuine queueing at every size.
  o.ops = n <= 7 ? 120 : n <= 16 ? 80 : 48;
  o.ops_per_sec = 200.0;
  o.clients = 1000;
  o.payload_bytes = 100;
  return o;
}

}  // namespace

int main() {
  print_header(
      "Scaling campaign (extension): open-loop Poisson load, n x {LAN,WAN}\n"
      "x {fault-free, kill_link churn, Byzantine}; delivery-latency tails\n"
      "(virtual time, machine-independent, bit-identical per seed)");

  std::vector<std::uint32_t> sizes = {4, 7, 10, 16};
  const char* smoke_env = std::getenv("RITAS_SCALING_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  if (smoke) sizes = {4, 7};
  if (const char* env = std::getenv("RITAS_SCALING_N31");
      env != nullptr && env[0] == '1') {
    sizes.push_back(31);
  }

  BenchReport report("scaling_wan");
  report.config("ops_per_sec", 200.0);
  report.config("clients", std::uint64_t{1000});
  report.config("payload_bytes", std::uint64_t{100});
  // Per-cell seeds derive from the (n, net, fault) key, so a trimmed smoke
  // sweep's rows are the same virtual runs as the full sweep's.
  report.compare(std::string(R"({"key":["n","net","fault"],"subset":)") +
                 (smoke ? "true" : "false") +
                 R"(,"fields":{"p50_ns":{"better":"lower","tolerance":0.2},)"
                 R"("p99_ns":{"better":"lower","tolerance":0.2},)"
                 R"("p999_ns":{"better":"lower","tolerance":0.2}}})");

  std::printf("%4s %5s %10s %6s %5s %9s %9s %9s %8s %5s %4s\n", "n", "net",
              "fault", "ops", "done", "p50(ms)", "p99(ms)", "p999(ms)",
              "elapsed", "bklg", "ord");

  bool all_ok = true;
  int cells = 0;
  // p99 per (n, fault) under LAN, to gate WAN >= LAN on the same cell.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lan_p99;  // key, ns

  for (std::uint32_t n : sizes) {
    for (NetProfile net : {NetProfile::kLan, NetProfile::kWan}) {
      for (CampaignFault fault :
           {CampaignFault::kNone, CampaignFault::kChurn,
            CampaignFault::kByzantine}) {
        const CampaignOptions o = cell_options(n, net, fault);
        const CampaignResult r = sim::run_campaign(o);

        const double p50_ms = static_cast<double>(r.latency.p50()) / 1e6;
        const double p99_ms = static_cast<double>(r.latency.p99()) / 1e6;
        const double p999_ms = static_cast<double>(r.latency.p999()) / 1e6;
        std::printf("%4u %5s %10s %6llu %5s %9.2f %9.2f %9.2f %7.2fs %5llu %4s\n",
                    n, sim::net_profile_name(net),
                    sim::campaign_fault_name(fault),
                    static_cast<unsigned long long>(r.ops_offered),
                    r.completed ? "yes" : "NO", p50_ms, p99_ms, p999_ms,
                    static_cast<double>(r.elapsed) / 1e9,
                    static_cast<unsigned long long>(r.backlog_peak),
                    r.ordered ? "yes" : "NO");

        report.add_row([&](JsonWriter& w) {
          w.field("n", static_cast<std::uint64_t>(n));
          w.field("net", sim::net_profile_name(net));
          w.field("fault", sim::campaign_fault_name(fault));
          w.field("seed", o.seed);
          w.field("ops", r.ops_offered);
          w.field("ops_completed", r.ops_completed);
          w.field("completed", r.completed);
          w.field("ordered", r.ordered);
          w.field("p50_ns", r.latency.p50());
          w.field("p99_ns", r.latency.p99());
          w.field("p999_ns", r.latency.p999());
          w.field("mean_ns", r.latency.mean());
          w.field("max_ns", r.latency.max());
          w.field("backlog_peak", r.backlog_peak);
          w.field("elapsed_ns", r.elapsed);
          w.field("retransmissions", r.retransmissions);
          w.field("fingerprint", r.fingerprint);
        });

        ++cells;
        const std::string cell = "n" + std::to_string(n) + "_" +
                                 sim::net_profile_name(net) + "_" +
                                 sim::campaign_fault_name(fault);
        const Histogram& lat = r.latency;
        all_ok &= report.gate(cell + "_completed", r.completed);
        all_ok &= report.gate(cell + "_ordered", r.ordered);
        all_ok &= report.gate(cell + "_ops_completed", r.ops_completed, "==",
                              r.ops_offered);
        all_ok &= report.gate(cell + "_p50_le_p99", lat.p50(), "<=", lat.p99());
        all_ok &= report.gate(cell + "_p99_le_p999", lat.p99(), "<=",
                              lat.p999());
        all_ok &= report.gate(cell + "_p999_le_max", lat.p999(), "<=",
                              lat.max());
        const std::uint64_t key =
            (std::uint64_t{n} << 8) | static_cast<std::uint8_t>(fault);
        if (net == NetProfile::kLan) {
          lan_p99.emplace_back(key, r.latency.p99());
        } else {
          for (const auto& [k, lan_ns] : lan_p99) {
            if (k == key) {
              all_ok &=
                  report.gate(cell + "_p99_ge_lan", lat.p99(), ">=", lan_ns);
            }
          }
        }
      }
    }
  }

  // The smoke sweep is n in {4, 7} x {lan, wan} x the three faultloads.
  if (smoke) all_ok &= report.gate("smoke_cells", cells, "==", 12);
  if (!report.write()) {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  std::printf("\nshape checks:\n");
  std::printf("  every cell completed with total order intact : %s\n",
              all_ok ? "PASS" : "FAIL");
  return report.exit_code();
}
