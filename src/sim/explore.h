// Deterministic schedule-exploration harness with failing-schedule
// shrinking.
//
// The simulator already guarantees "same seed => bit-identical run"; this
// layer turns that guarantee into a bug-hunting tool. A `Schedule` is a
// fully self-describing trial: seed, cluster shape, workload, fault set
// (Byzantine hook composition, timed crashes), and a list of network
// perturbations (windowed link delays, partition windows realized as
// delay-until-heal). `Explorer` generates schedules from a seed range,
// executes each under a liveness budget (driving its layer through
// sim::LayerRun), and checks the per-layer property oracles
// (sim/oracles.h) after every trial. When a trial fails, a
// delta-debugging pass shrinks the schedule — dropping perturbations,
// clearing adversary hooks, removing Byzantine processes, reducing the
// workload — to a minimal still-failing schedule, serialized as JSON that
// `ritas_explore --replay` re-executes bit-identically (the trial
// fingerprint, a hash over the observation stream, proves it).
//
// Everything here is deterministic: all randomness flows from the schedule
// seed through the stack's Rng, and no wall clock is ever read.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "core/stack.h"
#include "core/types.h"
#include "sim/layer_run.h"
#include "sim/scheduler.h"

namespace ritas::sim {

/// One scheduled network disturbance. All windows are half-open
/// [start, end) in simulated nanoseconds.
struct Perturbation {
  enum class Kind : std::uint8_t {
    /// Adds `delay_ns` to every frame from `a` to `b` inside the window.
    kLinkDelay = 0,
    /// Frames crossing the `group_mask` cut inside the window are held
    /// until the window closes (a healing partition — also how the
    /// explorer models crash/recover without losing frames).
    kPartition = 1,
    /// Process `a` crashes at `start` (permanent; frames to/from vanish).
    kCrash = 2,
  };

  Kind kind = Kind::kLinkDelay;
  ProcessId a = 0;
  ProcessId b = 0;
  std::uint32_t group_mask = 0;  // kPartition: bit p set = side A
  Time start = 0;
  Time end = 0;
  Time delay_ns = 0;  // kLinkDelay only

  friend bool operator==(const Perturbation&, const Perturbation&) = default;
};

/// Optional WAN overlay for a trial (sim/wan_model.h): processes spread
/// round-robin over `sites` canonical sites, with per-link jitter and a
/// modeled retransmission loss penalty, all seeded from the schedule seed.
/// Disabled = the legacy LAN-only trial — and the spec is then absent from
/// the schedule JSON, so pre-WAN artifacts replay bit-identically.
struct WanSpec {
  bool enabled = false;
  std::uint32_t sites = 4;
  std::uint32_t jitter_permille = 100;  ///< +-0..10% of the one-way delay
  std::uint32_t loss_ppm = 0;
  Time rto_ns = 200 * kMillisecond;

  friend bool operator==(const WanSpec&, const WanSpec&) = default;
};

/// Adversary hook bits: which single-strategy adversaries (core/adversary.h)
/// the Byzantine processes compose. kProbabilistic gates the whole
/// composition at p = 1/2 through a schedule-seeded Rng.
namespace hook {
inline constexpr std::uint32_t kPaper = 1u << 0;          // §4.2 faultload
inline constexpr std::uint32_t kStubbornZero = 1u << 1;   // BC steps push 0
inline constexpr std::uint32_t kStubbornOne = 1u << 2;    // BC steps push 1
inline constexpr std::uint32_t kSilentSteps = 1u << 3;    // BC steps omitted
inline constexpr std::uint32_t kEquivocate = 1u << 4;     // RB INIT split
inline constexpr std::uint32_t kCorruptMatrix = 1u << 5;  // EB MAT garbage
inline constexpr std::uint32_t kOmission = 1u << 6;       // omit_victims mask
inline constexpr std::uint32_t kProbabilistic = 1u << 7;  // p=1/2 gate
inline constexpr std::uint32_t kAll = (1u << 8) - 1;
}  // namespace hook

/// A complete, replayable trial description. Serializes to/from JSON
/// (schedule_<seed>.json); `from_json` also accepts the wrapper object the
/// explorer CLI writes (it descends into a "schedule" member).
struct Schedule {
  std::uint64_t seed = 1;
  std::uint32_t n = 4;
  Workload workload = Workload::kBinaryConsensus;
  /// Parallel protocol instances (broadcasts per sender for AB).
  std::uint32_t messages = 1;
  /// Liveness budget: a trial that has not reached its goal within this
  /// many scheduler events (nor drained the queue) is flagged as stalled.
  std::uint64_t max_events = 200'000;

  std::vector<ProcessId> byzantine;
  std::uint32_t adversary_hooks = 0;  // hook:: bits
  std::uint64_t omit_victims = 0;     // hook::kOmission target mask

  std::vector<Perturbation> perturbations;

  /// WAN overlay the trial's network runs under (off = plain LAN).
  WanSpec wan;

  // Stack switches that change protocol behaviour (must replay with the
  // trial for bit-identical re-execution).
  CoinMode coin_mode = CoinMode::kLocal;
  bool weak_bc_quorum = false;  // StackConfig::test_weak_bc_quorum
  bool ab_batching = false;
  /// Which RB/BC algorithms the trial's stacks run (JSON fields
  /// "rb_variant" / "bc_variant", names from core/variants.h; absent =
  /// "bracha"). from_json rejects combos validate_variants would refuse.
  VariantConfig variants;

  /// Shrink metric: scheduled disturbances + active hook bits + Byzantine
  /// processes + extra workload beyond one message.
  std::size_t size() const;

  std::string to_json() const;
  static std::optional<Schedule> from_json(std::string_view text);

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

/// Canonical artifact name for a failing schedule.
std::string schedule_filename(std::uint64_t seed);

/// Outcome of executing one schedule.
struct TrialResult {
  bool completed = false;  // goal reached within budget
  bool stalled = false;    // budget exhausted or queue drained short of goal
  std::vector<std::string> violations;  // oracle failures (safety)
  std::uint64_t events = 0;             // scheduler events executed
  Time end_time = 0;                    // simulated ns at trial end
  /// Hash over the observation stream (every decision/delivery with its
  /// virtual timestamp, plus events and end_time). Two runs of the same
  /// schedule must produce the same fingerprint — this is the replay
  /// bit-identity check.
  std::uint64_t fingerprint = 0;

  bool ok() const { return violations.empty(); }
};

/// A failing schedule plus its shrunk form.
struct Finding {
  std::uint64_t trial_seed = 0;
  Schedule schedule;        // as generated
  Schedule minimized;       // after delta debugging
  TrialResult result;       // result of re-running `minimized`
  std::uint32_t shrink_trials = 0;  // executions spent shrinking
  bool from_stall = false;  // finding is a liveness flag, not a safety one
};

class Explorer {
 public:
  struct Config {
    std::uint32_t n = 4;
    Workload workload = Workload::kBinaryConsensus;
    std::uint32_t messages = 2;
    std::uint64_t max_events = 200'000;

    // Stack switches applied to every generated schedule.
    CoinMode coin_mode = CoinMode::kLocal;
    bool weak_bc_quorum = false;
    bool ab_batching = false;
    /// RB/BC algorithm selection for every generated schedule. Imbs–Raynal
    /// shrinks the per-trial fault budget to its own t = (n-1)/5 bound;
    /// Crain forces the dealt coin (recorded in the schedule so replays
    /// stay bit-identical).
    VariantConfig variants;

    /// WAN overlay applied to every generated schedule (off = legacy LAN).
    WanSpec wan;

    /// Treat a stalled trial as a finding to shrink (off by default: the
    /// randomized consensus only terminates with probability 1, so a
    /// budget overrun is a flag, not proof of a bug).
    bool stall_is_violation = false;
  };

  explicit Explorer(Config cfg) : cfg_(std::move(cfg)) {}

  const Config& config() const { return cfg_; }

  /// Deterministically derives trial `trial_seed`'s schedule (pure:
  /// depends only on cfg_ and the seed).
  Schedule make_schedule(std::uint64_t trial_seed) const;

  /// Executes one schedule from scratch and judges it with the oracles.
  /// Static and pure: replaying the same schedule anywhere reproduces the
  /// same TrialResult, fingerprint included.
  static TrialResult run_trial(const Schedule& s);

  /// Runs `count` trials starting at `first_seed`; stops at the first
  /// failing schedule, shrinks it, and returns the finding. nullopt when
  /// every trial passes. Updates metrics() as it goes.
  std::optional<Finding> explore(std::uint64_t first_seed, std::uint64_t count);

  /// Delta-debugging minimization: greedily drops perturbations, clears
  /// hook bits, removes Byzantine processes and shrinks the workload while
  /// the schedule keeps failing (`want_stall` selects which failure kind
  /// must be preserved). Returns the minimal still-failing schedule.
  Schedule shrink(const Schedule& failing, bool want_stall,
                  std::uint32_t* trials_out = nullptr);

  /// explore_trials / explore_violations / explore_stalls live here (the
  /// explorer owns trial accounting; per-stack metrics stay per-stack).
  const Metrics& metrics() const { return metrics_; }

 private:
  Config cfg_;
  Metrics metrics_;
};

}  // namespace ritas::sim
