// Shared helpers for protocol tests driven through the simulated cluster.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/atomic_broadcast.h"
#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"
#include "sim/cluster.h"
#include "sim/layer_run.h"
#include "sim/oracles.h"

namespace ritas::test {

using sim::Cluster;
using sim::ClusterOptions;
using sim::Time;

constexpr Time kDeadline = 120 * sim::kSecond;

/// Per-process capture of one value (decision or delivery).
template <typename T>
struct Capture {
  std::vector<std::optional<T>> got;
  /// The run that recorded `got`, when run_layer made it.
  std::shared_ptr<const sim::LayerRun> run;
  explicit Capture(std::uint32_t n) : got(n) {}

  auto sink(ProcessId p) {
    return [this, p](T v) { got[p] = std::move(v); };
  }
  bool all_set(const std::vector<ProcessId>& who) const {
    for (ProcessId p : who) {
      if (!got[p].has_value()) return false;
    }
    return true;
  }
  bool agree(const std::vector<ProcessId>& who) const {
    if (who.empty()) return true;
    const auto& first = got[who.front()];
    for (ProcessId p : who) {
      if (!(got[p] == first)) return false;
    }
    return true;
  }
};

/// Runs one root of layer `w` at every live process (sim::LayerRun) until
/// every correct process decided; `got` holds what `recorded` returns at
/// that point. The capture keeps the run alive: its roots still report to
/// it.
template <typename T>
Capture<T> run_layer(Cluster& c, sim::Workload w, std::uint64_t root_seq,
                     sim::LayerRun::Inputs in,
                     const std::vector<std::optional<T>>& (
                         sim::LayerRun::*recorded)() const) {
  auto run = std::make_shared<sim::LayerRun>(c, w, root_seq, std::move(in));
  c.run_until([&] { return run->done(c.correct_set()); }, kDeadline);
  Capture<T> cap(c.n());
  cap.got = ((*run).*recorded)();
  cap.run = std::move(run);
  return cap;
}

/// One binary consensus across all live processes; proposals[p] is p's
/// input.
inline Capture<bool> run_binary_consensus(Cluster& c,
                                          const std::vector<bool>& proposals,
                                          std::uint64_t root_seq = 1) {
  return run_layer(c, sim::Workload::kBinaryConsensus, root_seq,
                   {.bits = proposals}, &sim::LayerRun::bits);
}

inline Capture<std::optional<Bytes>> run_mvc(
    Cluster& c, const std::vector<Bytes>& proposals,
    std::uint64_t root_seq = 1) {
  return run_layer(c, sim::Workload::kMultiValuedConsensus, root_seq,
                   {.values = proposals}, &sim::LayerRun::mvc);
}

inline Capture<VectorConsensus::Vector> run_vc(
    Cluster& c, const std::vector<Bytes>& proposals,
    std::uint64_t root_seq = 1) {
  return run_layer(c, sim::Workload::kVectorConsensus, root_seq,
                   {.values = proposals}, &sim::LayerRun::vc);
}

/// Ordered per-process delivery log for broadcast protocols.
struct DeliveryLog {
  std::vector<std::vector<Bytes>> by_process;
  explicit DeliveryLog(std::uint32_t n) : by_process(n) {}
  auto sink(ProcessId p) {
    return [this, p](Slice b) { by_process[p].push_back(b.to_bytes()); };
  }
  bool everyone_has(const std::vector<ProcessId>& who, std::size_t count) const {
    for (ProcessId p : who) {
      if (by_process[p].size() < count) return false;
    }
    return true;
  }
};

/// Atomic broadcast roots (kAtomicBroadcast, 0) driven by one
/// sim::LayerRun, whose AbRecorder takes every send and every delivery: the
/// input of the §2.7 oracles.
class AbGroup {
 public:
  /// Creates the root at `at` (default: every live process); join() adds
  /// the others later.
  explicit AbGroup(Cluster& c, std::vector<ProcessId> at = {})
      : run_(c, sim::Workload::kAtomicBroadcast, 0, {.at = std::move(at)}) {}

  void join(ProcessId p) { run_.join(p); }
  /// p's AB instance, for calls other than bcast (flush, batch probes).
  AtomicBroadcast& at(ProcessId p) { return run_.ab_root(p); }
  /// p broadcasts `payload`, and the send is recorded unless p is faulty.
  /// Call from inside c.call(p, ...), like any protocol entry point.
  std::uint64_t bcast(ProcessId p, Bytes payload) {
    return run_.bcast(p, std::move(payload));
  }
  /// c.call(p, ...) around one bcast.
  void send(ProcessId p, Bytes payload) { run_.send(p, {std::move(payload)}); }

  const sim::oracle::AbLog& log(ProcessId p) const { return run_.ab().log(p); }
  bool everyone_has(const std::vector<ProcessId>& who, std::size_t k) const {
    for (ProcessId p : who) {
      if (log(p).size() < k) return false;
    }
    return true;
  }
  /// The full §2.7 set (oracle::check_ab) over `correct`.
  sim::oracle::Report check(const std::vector<ProcessId>& correct,
                            bool complete = true) const {
    sim::oracle::Report r;
    run_.check(r, correct, complete);
    return r;
  }
  const sim::oracle::AbRecorder& recorder() const { return run_.ab(); }

 private:
  sim::LayerRun run_;
};

inline ClusterOptions fast_lan(std::uint32_t n, std::uint64_t seed) {
  ClusterOptions o;
  o.n = n;
  o.seed = seed;
  // Tests don't need calibrated timing; shrink constants so big sweeps run
  // quickly, keep jitter for schedule diversity.
  o.lan.cpu_send_ns = 5'000;
  o.lan.cpu_recv_ns = 5'000;
  o.lan.switch_latency_ns = 10'000;
  o.lan.jitter_ns = 40'000;
  return o;
}

}  // namespace ritas::test
