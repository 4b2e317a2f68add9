// One cell of the large-n / WAN scaling campaign (ROADMAP item 3).
//
// A campaign cell is (n, network profile, faultload): it builds a Cluster,
// layers a WanModel over the calibrated LAN via the delay-policy seam,
// drives atomic broadcast open-loop with a Poisson LoadGen, and judges the
// run with the shared AB safety set (sim/oracles.h). Factored out of the
// bench so tests can rerun a single cell and pin its fingerprint
// bit-identical — BENCH_scaling_wan.json is just these results serialized.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "sim/scheduler.h"
#include "sim/wan_model.h"

namespace ritas::sim {

enum class NetProfile : std::uint8_t { kLan = 0, kWan = 1 };
enum class CampaignFault : std::uint8_t {
  kNone = 0,
  /// PR 5 kill_link churn, simulated: rotating single-link kill windows
  /// mid-load; held frames retransmit when the link heals.
  kChurn = 1,
  /// The §4.2 faultload: f = (n-1)/3 processes run the paper's Byzantine
  /// adversary.
  kByzantine = 2,
};

const char* net_profile_name(NetProfile n);
const char* campaign_fault_name(CampaignFault f);

struct CampaignOptions {
  std::uint32_t n = 4;
  NetProfile net = NetProfile::kLan;
  CampaignFault fault = CampaignFault::kNone;
  std::uint64_t seed = 1;

  /// Offered load: `ops` arrivals at `ops_per_sec` from `clients`
  /// simulated clients, payload_bytes each.
  std::uint32_t ops = 120;
  double ops_per_sec = 200.0;
  std::uint32_t clients = 1000;
  std::uint32_t payload_bytes = 100;

  /// WAN shape (kWan only).
  std::uint32_t wan_sites = 4;
  std::uint32_t wan_jitter_permille = 100;  ///< +-0..10% of one-way delay
  std::uint32_t wan_loss_ppm = 1000;        ///< 0.1% modeled frame loss
  Time wan_rto_ns = 200 * kMillisecond;

  /// Liveness budget in simulated time.
  Time deadline = 600 * kSecond;
};

struct CampaignResult {
  /// Every offered op delivered at every correct process within deadline.
  bool completed = false;
  /// The full AB safety set (oracle::check_ab: total order, no-dup,
  /// no-creation, and validity when `completed`) held across all correct
  /// processes.
  bool ordered = true;
  std::uint64_t ops_offered = 0;
  /// Ops whose delivery was observed at the observer (lowest correct id).
  std::uint64_t ops_completed = 0;
  /// Per-op submit->deliver latency at the observer, simulated ns.
  Histogram latency;
  std::uint64_t backlog_peak = 0;
  /// Simulated time from first arrival scheduling to run end.
  Time elapsed = 0;
  /// Frames that paid a modeled WAN retransmission penalty.
  std::uint64_t retransmissions = 0;
  /// Streaming hash over every delivery at every correct process (payload,
  /// position, virtual time) — two runs of the same options must match.
  std::uint64_t fingerprint = 0;
};

CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace ritas::sim
