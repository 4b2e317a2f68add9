// Shared helpers for protocol tests driven through the simulated cluster.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/atomic_broadcast.h"
#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"
#include "sim/cluster.h"
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

/// Runs one binary consensus across all live processes; proposals[p] is
/// p's input. Returns per-process decisions via the capture.
inline Capture<bool> run_binary_consensus(Cluster& c,
                                          const std::vector<bool>& proposals,
                                          std::uint64_t root_seq = 1) {
  Capture<bool> cap(c.n());
  std::vector<BcAlgorithm*> insts(c.n(), nullptr);
  const InstanceId id = InstanceId::root(ProtocolType::kBinaryConsensus, root_seq);
  for (ProcessId p : c.live()) {
    insts[p] = &c.create_bc(p, id, Attribution::kAgreement,
                                               cap.sink(p));
  }
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] { insts[p]->propose(proposals[p]); });
  }
  c.run_until([&] { return cap.all_set(c.correct_set()); }, kDeadline);
  return cap;
}

inline Capture<std::optional<Bytes>> run_mvc(
    Cluster& c, const std::vector<Bytes>& proposals, std::uint64_t root_seq = 1) {
  Capture<std::optional<Bytes>> cap(c.n());
  std::vector<MultiValuedConsensus*> insts(c.n(), nullptr);
  const InstanceId id =
      InstanceId::root(ProtocolType::kMultiValuedConsensus, root_seq);
  for (ProcessId p : c.live()) {
    insts[p] = &c.create_root<MultiValuedConsensus>(p, id, Attribution::kAgreement,
                                                    cap.sink(p));
  }
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] { insts[p]->propose(proposals[p]); });
  }
  c.run_until([&] { return cap.all_set(c.correct_set()); }, kDeadline);
  return cap;
}

inline Capture<VectorConsensus::Vector> run_vc(
    Cluster& c, const std::vector<Bytes>& proposals, std::uint64_t root_seq = 1) {
  Capture<VectorConsensus::Vector> cap(c.n());
  std::vector<VectorConsensus*> insts(c.n(), nullptr);
  const InstanceId id = InstanceId::root(ProtocolType::kVectorConsensus, root_seq);
  for (ProcessId p : c.live()) {
    insts[p] = &c.create_root<VectorConsensus>(p, id, Attribution::kAgreement,
                                               cap.sink(p));
  }
  for (ProcessId p : c.live()) {
    c.call(p, [&, p] { insts[p]->propose(proposals[p]); });
  }
  c.run_until([&] { return cap.all_set(c.correct_set()); }, kDeadline);
  return cap;
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

/// Atomic broadcast roots (kAtomicBroadcast, 0) with every send and every
/// delivery fed to one oracle::AbRecorder, the input of the §2.7 oracles.
class AbGroup {
 public:
  /// Creates the root at every live process.
  explicit AbGroup(Cluster& c) : AbGroup(c, c.live()) {}
  /// Creates the root only at `at`; join() adds the others later.
  AbGroup(Cluster& c, const std::vector<ProcessId>& at)
      : c_(c), rec_(c.n(), c.stack(0).config().ab_batch.enabled),
        ab_(c.n(), nullptr) {
    for (ProcessId p : at) join(p);
  }
  AbGroup(const AbGroup&) = delete;
  AbGroup& operator=(const AbGroup&) = delete;

  void join(ProcessId p) {
    ab_[p] = &c_.create_root<AtomicBroadcast>(
        p, InstanceId::root(ProtocolType::kAtomicBroadcast, 0),
        [this, p](ProcessId origin, std::uint64_t rbid, Slice payload) {
          rec_.delivered(p, origin, rbid, payload.to_bytes());
        });
  }
  /// p's AB instance, for calls other than bcast (flush, batch probes).
  AtomicBroadcast& at(ProcessId p) { return *ab_[p]; }
  /// p broadcasts `payload`, and the send is recorded. Call from inside
  /// c.call(p, ...), like any protocol entry point.
  std::uint64_t bcast(ProcessId p, Bytes payload) {
    const std::uint64_t rbid = ab_[p]->bcast(Bytes(payload));
    rec_.sent(p, rbid, std::move(payload));
    return rbid;
  }
  /// c.call(p, ...) around one bcast.
  void send(ProcessId p, Bytes payload) {
    c_.call(p, [&] { bcast(p, std::move(payload)); });
  }

  const sim::oracle::AbLog& log(ProcessId p) const { return rec_.log(p); }
  bool everyone_has(const std::vector<ProcessId>& who, std::size_t k) const {
    for (ProcessId p : who) {
      if (rec_.log(p).size() < k) return false;
    }
    return true;
  }
  /// The full §2.7 set (oracle::check_ab) over `correct`.
  sim::oracle::Report check(const std::vector<ProcessId>& correct,
                            bool complete = true) const {
    sim::oracle::Report r;
    rec_.check(r, correct, complete);
    return r;
  }
  const sim::oracle::AbRecorder& recorder() const { return rec_; }

 private:
  Cluster& c_;
  sim::oracle::AbRecorder rec_;
  std::vector<AtomicBroadcast*> ab_;
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
