// Wide-area overlay for the simulated network.
//
// The calibrated LAN model (sim/lan_model.h, frozen against Table 1) stays
// untouched: a WanModel produces only the EXTRA one-way delay a frame pays
// for crossing between sites, and plugs into SimNetwork::set_delay_policy
// on top of the LAN timing. Per-link delays are asymmetric (A->B != B->A,
// the §4.2 "more asymmetrical environment" the paper could not test),
// jitter and loss draw from an Rng seeded like everything else in the
// stack — same seed => bit-identical run.
//
// Loss never drops a frame: the stack assumes reliable FIFO channels (TCP
// in the real deployment), so a "lost" frame is modeled as the
// retransmission penalty TCP would pay — a seeded geometric number of RTOs
// added to the delay. Link kills model PR 5's kill_link churn hook the
// same way the explorer's partitions do: frames crossing a killed link are
// held until the window heals, exactly the reconnect-and-retransmit
// semantics of the real TCP channel layer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/types.h"
#include "sim/scheduler.h"

namespace ritas::sim {

/// One directed inter-site link. All randomness is integer-parameterized
/// (permille / ppm) so configurations serialize exactly.
struct WanLink {
  Time base_delay_ns = 0;  ///< one-way propagation delay
  Time jitter_ns = 0;      ///< uniform extra in [0, jitter_ns)
  std::uint32_t loss_ppm = 0;  ///< per-frame loss probability, parts/million
  Time rto_ns = 200 * kMillisecond;  ///< retransmission penalty per loss

  friend bool operator==(const WanLink&, const WanLink&) = default;
};

/// A killed link: frames between a and b (either direction) inside
/// [start, end) are held until the window heals. This is the simulated
/// analog of the real-TCP kill_link chaos hook — the channel layer
/// reconnects and retransmits exactly, so nothing is lost.
struct LinkKill {
  ProcessId a = 0;
  ProcessId b = 0;
  Time start = 0;
  Time end = 0;

  friend bool operator==(const LinkKill&, const LinkKill&) = default;
};

struct WanModelConfig {
  /// site_of[p] = site hosting process p. Intra-site traffic pays only the
  /// LAN model; inter-site traffic adds links[site_of[from]][site_of[to]].
  std::vector<std::uint32_t> site_of;
  /// Directed site-to-site link matrix (diagonal entries are ignored).
  std::vector<std::vector<WanLink>> links;
  std::vector<LinkKill> kills;
};

/// The canonical site topology: up to kCanonicalSites sites with measured
/// asymmetric one-way delays (ms scale, intra-continent to inter-continent
/// mix). The top-left 4x4 block is the original four-site WAN bench table.
inline constexpr std::uint32_t kCanonicalSites = 8;
Time canonical_site_delay(std::uint32_t from_site, std::uint32_t to_site);

struct WanProfileOptions {
  std::uint32_t sites = 4;  ///< clamped to [1, kCanonicalSites]
  /// Per-link jitter as a fraction of the base delay, in permille
  /// (100 = +-0..10% of the one-way delay per frame).
  std::uint32_t jitter_permille = 0;
  std::uint32_t loss_ppm = 0;  ///< inter-site per-frame loss
  Time rto_ns = 200 * kMillisecond;
};

/// Builds the canonical WAN profile for n processes spread round-robin
/// over `sites` sites (process p lives at site p % sites).
WanModelConfig wan_profile(std::uint32_t n, const WanProfileOptions& opt = {});

/// Deterministic per-frame extra-delay source; drop-in for
/// SimNetwork::DelayPolicy via `policy()`. The model must outlive the
/// network it is attached to.
class WanModel {
 public:
  WanModel(WanModelConfig cfg, std::uint64_t seed);

  /// Extra one-way delay for a frame submitted now. Draws jitter/loss from
  /// the seeded Rng — calls must happen in a deterministic order (they do:
  /// the simulator is single-threaded and the scheduler is deterministic).
  Time extra_delay(ProcessId from, ProcessId to, Time now);

  /// Adapter matching SimNetwork::DelayPolicy (captures `this`).
  std::function<Time(ProcessId, ProcessId, Time)> policy() {
    return [this](ProcessId from, ProcessId to, Time now) {
      return extra_delay(from, to, now);
    };
  }

  const WanModelConfig& config() const { return cfg_; }
  std::uint32_t site_of(ProcessId p) const {
    return p < cfg_.site_of.size() ? cfg_.site_of[p] : 0;
  }
  /// Frames that drew at least one modeled retransmission.
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  WanModelConfig cfg_;
  Rng rng_;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace ritas::sim
