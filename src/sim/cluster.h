// Simulated RITAS cluster: n protocol stacks on one simulated LAN.
//
// This is the harness every integration test and paper-replication bench
// drives. It owns the scheduler, the network, per-process keychains,
// stacks and root protocol instances, and applies the experiment
// faultloads of §4.2: failure-free, fail-stop (crashed processes), and
// Byzantine (processes running an Adversary).
//
// Each process runs `groups` stacks (one per consensus group, default 1)
// behind one GroupMux, which the network feeds every frame the host
// receives. The G stacks of a process share its keychain, its adversary
// and its host transport, so they contend for the same simulated CPU and
// NIC, as groups sharing a real mesh do. At G = 1 the mux hands every
// frame to the one stack.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/group_mux.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace ritas::sim {

struct ClusterOptions {
  std::uint32_t n = 4;
  /// Consensus groups per process: one stack each, group g on stack g.
  std::uint32_t groups = 1;
  std::uint64_t seed = 1;
  LanModelConfig lan;
  /// Template for every stack's config (n/self/group overwritten).
  StackConfig stack;
  /// Crashed from t=0 (all G stacks): no roots created, all frames dropped.
  std::vector<ProcessId> crashed;
  /// Crash faults injected mid-run: process p stops sending/receiving at
  /// simulated time t (it still counts as live() for setup purposes —
  /// create its roots and let the crash cut it off).
  std::vector<std::pair<ProcessId, Time>> timed_crashes;
  /// Byzantine processes: each gets an Adversary from the factory.
  std::vector<ProcessId> byzantine;
  std::function<std::unique_ptr<Adversary>()> adversary_factory =
      [] { return std::make_unique<PaperByzantineAdversary>(); };
  /// Attach a Tracer to every stack; host p's wire events go to the
  /// tracer of its group-0 stack.
  /// Timestamps are virtual time, so same seed => bit-identical traces.
  bool trace = false;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts);
  ~Cluster();

  std::uint32_t n() const { return opts_.n; }
  std::uint32_t groups() const { return opts_.groups; }
  Scheduler& scheduler() { return sched_; }
  SimNetwork& network() { return *net_; }
  Time now() const { return sched_.now(); }

  ProtocolStack& stack(ProcessId p, GroupId g = 0) {
    return *stacks_[p * opts_.groups + g];
  }
  /// Process p's inbound demultiplexer (what the network delivers to).
  GroupMux& mux(ProcessId p) { return muxes_[p]; }
  bool crashed(ProcessId p) const { return net_->crashed(p); }
  bool byzantine(ProcessId p) const { return adversaries_[p] != nullptr; }
  /// Correct = neither crashed nor Byzantine.
  bool correct(ProcessId p) const { return !crashed(p) && !byzantine(p); }
  /// Faulty = not correct now, or scheduled to crash (timed_crashes): a
  /// process that crashes mid-run is not correct.
  bool faulty(ProcessId p) const;
  std::vector<ProcessId> live() const;      // not crashed
  std::vector<ProcessId> correct_set() const;

  /// Creates a root protocol instance of type T at process p's group-0
  /// stack and returns a reference. The same root id must be created at
  /// every live process.
  template <typename T, typename... Args>
  T& create_root(ProcessId p, const InstanceId& id, Args&&... args) {
    auto inst = std::make_unique<T>(stack(p), nullptr, id,
                                    std::forward<Args>(args)...);
    T& ref = *inst;
    roots_[p].push_back(std::move(inst));
    stack(p).pump();
    return ref;
  }

  /// Root RB/BC instances go through the variant factories (core/variants.h)
  /// — create_root<T> can't, since the concrete constructors are private —
  /// so a harness automatically drives whichever algorithm the stack's
  /// StackConfig::variants selects.
  RbAlgorithm& create_rb(ProcessId p, const InstanceId& id, ProcessId origin,
                         Attribution attr, RbAlgorithm::DeliverFn deliver) {
    auto inst = make_rb(stack(p), nullptr, id, origin, attr,
                        std::move(deliver));
    RbAlgorithm& ref = *inst;
    roots_[p].push_back(std::move(inst));
    stack(p).pump();
    return ref;
  }
  BcAlgorithm& create_bc(ProcessId p, const InstanceId& id, Attribution attr,
                         BcAlgorithm::DecideFn decide) {
    auto inst = make_bc(stack(p), nullptr, id, attr, std::move(decide));
    BcAlgorithm& ref = *inst;
    roots_[p].push_back(std::move(inst));
    stack(p).pump();
    return ref;
  }

  /// Destroys every root created at process p (recursively tears down the
  /// control-block tree).
  void destroy_roots(ProcessId p) { roots_[p].clear(); }

  /// Runs `fn` as an API call against process p's group-0 stack (pumps
  /// after).
  void call(ProcessId p, const std::function<void()>& fn) {
    fn();
    stack(p).pump();
  }

  /// Runs the simulation until `done` or `deadline`; true iff done.
  bool run_until(const std::function<bool()>& done, Time deadline);
  /// Runs until the event queue drains; returns events executed.
  std::size_t run_all() { return sched_.run(); }

  /// Sum of stack metrics over every group of the non-crashed processes.
  Metrics total_metrics() const;
  /// Sum of group g's stack metrics over the non-crashed processes.
  Metrics group_metrics(GroupId g) const;

  // --- tracing (opts.trace) ----------------------------------------------
  /// The tracer of process p's group-g stack, or nullptr when tracing is off.
  Tracer* tracer(ProcessId p, GroupId g = 0) {
    return tracers_.empty() ? nullptr : tracers_[p * opts_.groups + g].get();
  }
  /// All per-(process, group) tracers (empty when tracing is off).
  std::vector<const Tracer*> tracers() const;
  /// Deterministic binary form of the whole cluster's trace, tracers
  /// concatenated p-major, then g — what the determinism tests compare.
  Bytes trace_bytes() const;
  /// Chrome trace_event JSON over all processes.
  std::string chrome_trace_json() const;

 private:
  ClusterOptions opts_;
  Scheduler sched_;
  std::unique_ptr<SimNetwork> net_;
  std::vector<KeyChain> keys_;
  std::vector<std::unique_ptr<Adversary>> adversaries_;
  // tracers_ and stacks_ are indexed [p * groups + g]. Tracers are
  // declared before the stacks that point at them, so they outlive them.
  std::vector<std::unique_ptr<Tracer>> tracers_;
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;
  std::vector<GroupMux> muxes_;
  std::vector<std::vector<std::unique_ptr<Protocol>>> roots_;
};

}  // namespace ritas::sim
