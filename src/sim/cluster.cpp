#include "sim/cluster.h"

#include <stdexcept>

#include "common/serialize.h"

namespace ritas::sim {

Cluster::Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
  const std::uint32_t n = opts_.n;
  const std::uint32_t groups = opts_.groups;
  if (groups == 0) throw std::invalid_argument("Cluster: groups == 0");
  net_ = std::make_unique<SimNetwork>(sched_, opts_.lan, n,
                                      opts_.seed ^ 0xabcdef12345678ULL);

  // Trusted-dealer key distribution (out of band, as in the paper), one
  // keychain per process: its G stacks share the pairwise channel secrets
  // as they share its channels (the GroupId in the authenticated frame
  // keeps cross-group replay inert).
  Writer master;
  master.str("ritas-sim-master");
  master.u64(opts_.seed);
  keys_.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    keys_.push_back(KeyChain::deal(master.data(), n, p));
  }

  adversaries_.resize(n);
  for (ProcessId p : opts_.byzantine) {
    if (p >= n) throw std::invalid_argument("byzantine process out of range");
    adversaries_[p] = opts_.adversary_factory();
  }

  stacks_.reserve(n * groups);
  muxes_ = std::vector<GroupMux>(n);
  roots_.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    for (GroupId g = 0; g < groups; ++g) {
      StackConfig cfg = opts_.stack;
      cfg.n = n;
      cfg.self = p;
      cfg.group = g;
      stacks_.push_back(std::make_unique<ProtocolStack>(
          cfg, net_->transport(p), keys_[p], stack_seed(opts_.seed, p, g),
          adversaries_[p].get()));
      muxes_[p].attach(g, *stacks_.back());
    }
  }

  if (opts_.trace) {
    tracers_.reserve(n * groups);
    for (ProcessId p = 0; p < n; ++p) {
      for (GroupId g = 0; g < groups; ++g) {
        tracers_.push_back(std::make_unique<Tracer>(p));
        stack(p, g).set_tracer(tracers_.back().get());
      }
      net_->set_tracer(p, tracer(p));
    }
  }

  net_->set_deliver([this](ProcessId from, ProcessId to, Slice frame) {
    muxes_[to].on_packet(from, std::move(frame));
  });

  for (ProcessId p : opts_.crashed) {
    if (p >= n) throw std::invalid_argument("crashed process out of range");
    net_->crash(p);
  }
  for (const auto& [p, t] : opts_.timed_crashes) {
    if (p >= n) throw std::invalid_argument("timed crash process out of range");
    sched_.at(t, [this, p = p] { net_->crash(p); });
  }
}

Cluster::~Cluster() = default;

bool Cluster::faulty(ProcessId p) const {
  if (!correct(p)) return true;
  for (const auto& [q, t] : opts_.timed_crashes) {
    if (q == p) return true;
  }
  return false;
}

std::vector<ProcessId> Cluster::live() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (!crashed(p)) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> Cluster::correct_set() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (correct(p)) out.push_back(p);
  }
  return out;
}

bool Cluster::run_until(const std::function<bool()>& done, Time deadline) {
  return sched_.run_until(done, deadline);
}

std::vector<const Tracer*> Cluster::tracers() const {
  std::vector<const Tracer*> out;
  out.reserve(tracers_.size());
  for (const auto& t : tracers_) out.push_back(t.get());
  return out;
}

Bytes Cluster::trace_bytes() const {
  Bytes out;
  for (const auto& t : tracers_) append(out, t->encode());
  return out;
}

std::string Cluster::chrome_trace_json() const {
  return ritas::chrome_trace_json(tracers());
}

Metrics Cluster::total_metrics() const {
  Metrics total;
  for (GroupId g = 0; g < opts_.groups; ++g) total += group_metrics(g);
  return total;
}

Metrics Cluster::group_metrics(GroupId g) const {
  Metrics total;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (!crashed(p)) total += stacks_[p * opts_.groups + g]->metrics();
  }
  return total;
}

}  // namespace ritas::sim
