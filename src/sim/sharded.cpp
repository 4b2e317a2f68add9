#include "sim/sharded.h"

#include <stdexcept>

#include "common/serialize.h"
#include "smr/kv_machine.h"

namespace ritas::sim {

ShardedCluster::ShardedCluster(ShardedClusterOptions opts)
    : opts_(std::move(opts)) {
  const std::uint32_t n = opts_.n;
  const std::uint32_t groups = opts_.groups;
  if (groups == 0) throw std::invalid_argument("ShardedCluster: groups == 0");
  net_ = std::make_unique<SimNetwork>(sched_, opts_.lan, n,
                                      opts_.seed ^ 0xabcdef12345678ULL);

  // Trusted-dealer key distribution, one keychain per PROCESS: all G
  // stacks of a process share the host's pairwise channel secrets, like
  // they share its TCP channels (see header).
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
  for (ProcessId p : opts_.crashed) {
    if (p >= n) throw std::invalid_argument("crashed process out of range");
  }

  std::uint64_t s = opts_.seed;
  const std::uint64_t base = splitmix64(s);

  muxes_.resize(n);
  stacks_.resize(n);
  abs_.resize(n);
  if (opts_.trace) tracers_.resize(n);
  services_.reserve(n);

  const auto factory = opts_.machine_factory
                           ? opts_.machine_factory
                           : [](smr::ShardId) -> std::unique_ptr<smr::StateMachine> {
                               return std::make_unique<smr::KvMachine>();
                             };
  const auto key_of =
      opts_.key_of ? opts_.key_of
                   : [](ByteView op) { return smr::kv_key_of(op); };

  for (ProcessId p = 0; p < n; ++p) {
    muxes_[p] = std::make_unique<GroupMux>();
    stacks_[p].reserve(groups);
    if (opts_.trace) tracers_[p].reserve(groups);
    for (GroupId g = 0; g < groups; ++g) {
      StackConfig cfg = opts_.stack;
      cfg.n = n;
      cfg.self = p;
      cfg.group = g;
      if (g < opts_.ab_batch_per_group.size()) {
        cfg.ab_batch = opts_.ab_batch_per_group[g];
      }
      // Group 0's derivation matches Cluster's, so a G=1 sharded run and a
      // plain Cluster run with the same seed draw identical randomness.
      const std::uint64_t proc_seed =
          base ^ (0x1000 + p) ^
          (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL);
      stacks_[p].push_back(std::make_unique<ProtocolStack>(
          cfg, net_->transport(p), keys_[p], proc_seed, adversaries_[p].get()));
      muxes_[p]->attach(g, *stacks_[p][g]);
      if (opts_.trace) {
        tracers_[p].push_back(std::make_unique<Tracer>(p));
        stacks_[p][g]->set_tracer(tracers_[p][g].get());
      }
    }

    smr::ShardedService::Config sc;
    sc.shards = groups;
    sc.key_of = key_of;
    services_.push_back(std::make_unique<smr::ShardedService>(sc, factory));
  }

  ab_.reserve(groups);
  for (GroupId g = 0; g < groups; ++g) {
    ab_.emplace_back(n, stacks_[0][g]->config().ab_batch.enabled);
  }

  // Inbound demux: the shared mesh delivers host-to-host; the mux peeks
  // the GroupId prefix and routes to the owning stack.
  net_->set_deliver([this](ProcessId from, ProcessId to, Slice frame) {
    muxes_[to]->on_packet(from, std::move(frame));
  });

  const auto is_crashed0 = [&](ProcessId p) {
    for (ProcessId c : opts_.crashed) {
      if (c == p) return true;
    }
    return false;
  };

  // AB roots: the SAME root id at every process and every group — the
  // GroupId is the wire-level separator, so identical child-seq encodings
  // across groups never collide.
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  for (ProcessId p = 0; p < n; ++p) {
    if (is_crashed0(p)) continue;  // crashed from t=0: no roots, no service
    abs_[p].reserve(groups);
    for (GroupId g = 0; g < groups; ++g) {
      abs_[p].push_back(std::make_unique<AtomicBroadcast>(
          *stacks_[p][g], nullptr, ab_root,
          [this, p, g](ProcessId origin, std::uint64_t rbid, Slice payload) {
            const ByteView bytes = payload.view();
            ab_[g].delivered(p, origin, rbid, payload.to_bytes());
            services_[p]->on_delivered(g, bytes);
          }));
      stacks_[p][g]->pump();
    }
    services_[p]->bind_submitter([this, p](smr::ShardId shard,
                                           const Bytes& command) {
      ab_[shard].sent(p, abs_[p][shard]->bcast(Bytes(command)), command);
      stacks_[p][shard]->pump();
    });
  }

  for (ProcessId p : opts_.crashed) net_->crash(p);
}

ShardedCluster::~ShardedCluster() = default;

std::vector<ProcessId> ShardedCluster::correct_set() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (correct(p)) out.push_back(p);
  }
  return out;
}

smr::ShardId ShardedCluster::submit(ProcessId via, std::uint64_t client,
                                    std::uint64_t seq, ByteView op) {
  if (via >= opts_.n || crashed(via)) {
    throw std::invalid_argument("submit: bad via process");
  }
  return services_[via]->submit(client, seq, op);
}

smr::ShardId ShardedCluster::submit_via(ProcessId via, smr::ShardId guess,
                                        std::uint64_t client, std::uint64_t seq,
                                        ByteView op) {
  if (via >= opts_.n || crashed(via)) {
    throw std::invalid_argument("submit_via: bad via process");
  }
  return services_[via]->submit_via(guess, client, seq, op);
}

void ShardedCluster::flush_all() {
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (abs_[p].empty()) continue;
    for (GroupId g = 0; g < opts_.groups; ++g) {
      abs_[p][g]->flush();
      stacks_[p][g]->pump();
    }
  }
}

bool ShardedCluster::run_until(const std::function<bool()>& done,
                               Time deadline) {
  return sched_.run_until(done, deadline);
}

bool ShardedCluster::all_applied_at_least(std::uint64_t count) const {
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (!correct(p)) continue;
    if (services_[p]->applied_total() < count) return false;
  }
  return true;
}

Metrics ShardedCluster::group_metrics(GroupId g) const {
  Metrics total;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (!crashed(p)) total += stacks_[p][g]->metrics();
  }
  return total;
}

Metrics ShardedCluster::total_metrics() const {
  Metrics total;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (crashed(p)) continue;
    for (GroupId g = 0; g < opts_.groups; ++g) {
      total += stacks_[p][g]->metrics();
    }
  }
  return total;
}

Bytes ShardedCluster::group_trace_bytes(GroupId g) const {
  Bytes out;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (p < tracers_.size() && g < tracers_[p].size()) {
      append(out, tracers_[p][g]->encode());
    }
  }
  return out;
}

}  // namespace ritas::sim
