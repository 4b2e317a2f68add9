#include "sim/campaign.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/atomic_broadcast.h"
#include "sim/cluster.h"
#include "sim/load_gen.h"
#include "sim/oracles.h"

namespace ritas::sim {

namespace {

// Seed-domain separators (distinct from the explorer's 0x5c4ed01e tags):
// cluster, load generator and WAN model draw from independent streams.
constexpr std::uint64_t kTagCluster = 0xca3b619000000001ull;
constexpr std::uint64_t kTagLoad = 0xca3b619000000002ull;
constexpr std::uint64_t kTagWan = 0xca3b619000000003ull;

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t st = seed ^ tag;
  return splitmix64(st);
}

/// Streaming hash over the observation stream (same shape as the
/// explorer's trial fingerprint).
struct Fingerprint {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  void u64(std::uint64_t v) {
    std::uint64_t st = h ^ (v + 0x9e3779b97f4a7c15ull);
    h = splitmix64(st);
  }
  void bytes(ByteView b) {
    u64(b.size());
    std::uint64_t acc = 0;
    int k = 0;
    for (std::uint8_t c : b) {
      acc = (acc << 8) | c;
      if (++k == 8) {
        u64(acc);
        acc = 0;
        k = 0;
      }
    }
    if (k != 0) u64(acc);
  }
};

}  // namespace

const char* net_profile_name(NetProfile n) {
  switch (n) {
    case NetProfile::kLan: return "lan";
    case NetProfile::kWan: return "wan";
  }
  return "?";
}

const char* campaign_fault_name(CampaignFault f) {
  switch (f) {
    case CampaignFault::kNone: return "none";
    case CampaignFault::kChurn: return "churn";
    case CampaignFault::kByzantine: return "byzantine";
  }
  return "?";
}

CampaignResult run_campaign(const CampaignOptions& opts) {
  const std::uint32_t n = opts.n;
  CampaignResult out;

  std::vector<ProcessId> byz;
  if (opts.fault == CampaignFault::kByzantine) {
    for (std::uint32_t i = 0; i < max_faults(n); ++i) {
      byz.push_back(static_cast<ProcessId>(n - 1 - i));
    }
    std::sort(byz.begin(), byz.end());
  }

  // The WAN overlay also carries the churn kill windows, so the LAN cells
  // reuse the same delay-policy seam with an empty site map.
  WanModelConfig wcfg;
  if (opts.net == NetProfile::kWan) {
    WanProfileOptions wo;
    wo.sites = opts.wan_sites;
    wo.jitter_permille = opts.wan_jitter_permille;
    wo.loss_ppm = opts.wan_loss_ppm;
    wo.rto_ns = opts.wan_rto_ns;
    wcfg = wan_profile(n, wo);
  }
  if (opts.fault == CampaignFault::kChurn) {
    // Rotating single-link kills across the load window: never a partition
    // (the mesh routes around one dead link), but held frames stretch the
    // tail exactly like PR 5's kill_link does on real TCP.
    const Time load_ns = static_cast<Time>(
        static_cast<double>(opts.ops) / opts.ops_per_sec * 1e9);
    const Time len = load_ns / 5;
    wcfg.kills.push_back({0, 1, load_ns / 4, load_ns / 4 + len});
    wcfg.kills.push_back({1, 2, load_ns / 2, load_ns / 2 + len});
    wcfg.kills.push_back({2, 3, (3 * load_ns) / 4, (3 * load_ns) / 4 + len});
  }
  WanModel wan(std::move(wcfg), derive(opts.seed, kTagWan));

  ClusterOptions o;
  o.n = n;
  o.seed = derive(opts.seed, kTagCluster);
  o.byzantine = byz;

  // Observation state — declared before the Cluster so protocol callbacks
  // referencing it can never dangle.
  Fingerprint fp;
  oracle::AbRecorder ab_rec(n, o.stack.ab_batch.enabled);
  std::vector<std::uint64_t> got(n, 0);  // loadgen ops delivered at p
  std::vector<bool> is_origin(n, false);
  LoadGen* lg = nullptr;

  Cluster c(o);
  c.network().set_delay_policy(wan.policy());

  const std::vector<ProcessId> origins = c.correct_set();
  const ProcessId observer = origins.front();
  for (ProcessId p : origins) is_origin[p] = true;

  std::vector<AtomicBroadcast*> ab(n, nullptr);
  const InstanceId id = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  for (ProcessId p : c.live()) {
    AtomicBroadcast::DeliverFn cb;
    if (c.correct(p)) {
      cb = [&, p](ProcessId origin, std::uint64_t rbid, Slice payload) {
        ab_rec.delivered(p, origin, rbid, payload.to_bytes());
        if (is_origin[origin]) ++got[p];
        fp.u64((std::uint64_t{p} << 40) | ab_rec.log(p).size());
        fp.u64(origin);
        fp.bytes(ab_rec.log(p).back().payload);
        fp.u64(c.now());
        if (p == observer && lg != nullptr) lg->on_completed(origin);
      };
    }
    ab[p] = &c.create_root<AtomicBroadcast>(p, id, std::move(cb));
  }

  LoadGen::Options lo;
  lo.clients = opts.clients;
  lo.ops_per_sec = opts.ops_per_sec;
  lo.payload_bytes = opts.payload_bytes;
  lo.max_ops = opts.ops;
  lo.seed = derive(opts.seed, kTagLoad);
  lo.origins = origins;
  LoadGen gen(c.scheduler(), lo,
              [&c, &ab, &ab_rec](ProcessId origin, Bytes payload) {
                c.call(origin, [&] {
                  const std::uint64_t rbid = ab[origin]->bcast(Bytes(payload));
                  ab_rec.sent(origin, rbid, std::move(payload));
                });
              });
  lg = &gen;
  const Time t0 = c.now();
  gen.start();

  const std::uint64_t target = opts.ops;
  out.completed = c.run_until(
      [&] {
        if (gen.offered() < target) return false;
        for (ProcessId p : origins) {
          if (got[p] < target) return false;
        }
        return true;
      },
      t0 + opts.deadline);
  lg = nullptr;

  oracle::Report report;
  ab_rec.check(report, origins, out.completed);
  out.ordered = report.ok();
  out.ops_offered = gen.offered();
  out.ops_completed = gen.completed();
  out.latency = gen.latency();
  out.backlog_peak = gen.backlog_peak();
  out.elapsed = c.now() - t0;
  out.retransmissions = wan.retransmissions();
  fp.u64(out.ops_offered);
  fp.u64(out.ops_completed);
  fp.u64(out.backlog_peak);
  fp.u64(out.elapsed);
  out.fingerprint = fp.h;
  return out;
}

}  // namespace ritas::sim
