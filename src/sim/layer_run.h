// One root instance of one protocol layer, driven across a simulated
// cluster and judged by the shared property oracles (sim/oracles.h).
//
// Every simulator harness that exercises a layer in isolation does the
// same three things: create the root at every live process, feed it its
// inputs, and wait until the correct processes decided or delivered.
// `LayerRun` is that driver, once: the schedule explorer (sim/explore.h),
// the AB campaign (sim/campaign.h), the paper benches (Table 1, Figs 2 and
// 4-7, the ablations and the variant matrix) and the protocol tests build
// on it, so one set of recorders and one oracle call judge all of them.
//
// Inputs come in three shapes: per-process proposals (BC bits, MVC/VC
// values), one origin's broadcast (RB/EB), or AB sends grouped per
// Cluster::call. RB and BC roots go through the variant factories
// (`create_rb`/`create_bc`), so a run drives whichever algorithm the
// stacks' StackConfig::variants selects.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "core/types.h"
#include "sim/oracles.h"

namespace ritas {
class AtomicBroadcast;
}  // namespace ritas

namespace ritas::sim {

class Cluster;

/// Which protocol layer a run drives (and which oracles judge it).
enum class Workload : std::uint8_t {
  kReliableBroadcast = 0,
  kEchoBroadcast = 1,
  kBinaryConsensus = 2,
  kMultiValuedConsensus = 3,
  kVectorConsensus = 4,
  kAtomicBroadcast = 5,
};

const char* workload_name(Workload w);
std::optional<Workload> workload_from_name(std::string_view name);

class LayerRun {
 public:
  /// Broadcasts one process issues inside one Cluster::call.
  struct Call {
    ProcessId p = 0;
    std::vector<Bytes> payloads;
  };

  /// What the run feeds its roots; each layer reads its own shape.
  struct Inputs {
    /// BC: process p proposes bits[p].
    std::vector<bool> bits = {};
    /// MVC, VC: process p proposes values[p].
    std::vector<Bytes> values = {};
    /// RB, EB: one call with one payload, the origin's broadcast. AB: the
    /// sends, in order (more can follow through send()). A call at a
    /// process without a root (crashed, or not joined yet) is skipped.
    std::vector<Call> calls = {};
    /// Processes that create the root now (empty: every live process);
    /// join() adds a latecomer.
    std::vector<ProcessId> at = {};
  };

  /// One decision or delivery, handed to the observer once recorded.
  struct Outcome {
    ProcessId at = 0;
    bool bit = false;                          ///< BC decision
    /// RB/EB/AB: the payload; MVC: the value (nullptr = ⊥).
    const Bytes* value = nullptr;
    const oracle::VcVector* vector = nullptr;  ///< VC decision
    ProcessId origin = 0;                      ///< AB: the message's origin
    std::uint64_t rbid = 0;                    ///< AB: its rbid
  };
  using Observer = std::function<void(const Outcome&)>;

  /// Creates root (type of `w`, `seq`) at the processes of `in.at`, then
  /// feeds `in`: the proposals in process order, then the calls in order.
  /// The roots report to the run, so keep it alive while `c` still runs
  /// events.
  LayerRun(Cluster& c, Workload w, std::uint64_t seq, Inputs in,
           Observer observe = {});
  LayerRun(const LayerRun&) = delete;
  LayerRun& operator=(const LayerRun&) = delete;

  /// Creates the root at process p (a latecomer; no input is fed).
  void join(ProcessId p);

  /// AB: p broadcasts `payload` and the send is recorded (a faulty
  /// origin's is not: the oracles never quantify over it). Call from
  /// inside c.call(p, ...), like any protocol entry point; returns the
  /// rbid.
  std::uint64_t bcast(ProcessId p, Bytes payload);
  /// AB: one c.call(p, ...) around a bcast of each payload.
  void send(ProcessId p, std::vector<Bytes> payloads);
  /// AB: process p's root, for calls other than bcast (flush, probes).
  AtomicBroadcast& ab_root(ProcessId p);

  /// True once every process in `correct` decided (BC/MVC/VC), delivered
  /// the broadcast of a non-faulty origin (RB/EB), or delivered every
  /// message a process in `correct` sent (AB).
  bool done(const std::vector<ProcessId>& correct) const;
  /// The layer's oracle set over `correct`. `complete` adds the
  /// properties that need a quiesced run (termination, validity,
  /// totality).
  void check(oracle::Report& r, const std::vector<ProcessId>& correct,
             bool complete) const;

  // --- the recorders the oracles judge (index = ProcessId) ----------------
  const std::vector<std::optional<bool>>& bits() const { return bits_; }
  const std::vector<std::optional<oracle::MvcDecision>>& mvc() const {
    return mvc_;
  }
  const std::vector<std::optional<oracle::VcVector>>& vc() const { return vc_; }
  const std::vector<std::optional<Bytes>>& delivered() const {
    return delivered_;
  }
  const oracle::AbRecorder& ab() const { return ab_; }

 private:
  Cluster& c_;
  Workload w_;
  std::uint64_t seq_;
  Inputs in_;
  Observer observe_;
  std::vector<AtomicBroadcast*> ab_roots_;
  /// Per process: proposes its input (BC/MVC/VC) or broadcasts a payload
  /// and returns the AB rbid (RB/EB/AB); bound when its root is created.
  std::vector<std::function<void()>> propose_;
  std::vector<std::function<std::uint64_t(Bytes)>> bcast_;

  std::vector<bool> has_outcome_;  // decided or delivered (not AB)
  std::vector<std::optional<bool>> bits_;
  std::vector<std::optional<oracle::MvcDecision>> mvc_;
  std::vector<std::optional<oracle::VcVector>> vc_;
  std::vector<std::optional<Bytes>> delivered_;
  oracle::AbRecorder ab_;
};

}  // namespace ritas::sim
