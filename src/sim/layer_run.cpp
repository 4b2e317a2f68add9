#include "sim/layer_run.h"

#include <stdexcept>
#include <utility>

#include "core/atomic_broadcast.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/vector_consensus.h"
#include "sim/cluster.h"

namespace ritas::sim {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kReliableBroadcast: return "rb";
    case Workload::kEchoBroadcast: return "eb";
    case Workload::kBinaryConsensus: return "bc";
    case Workload::kMultiValuedConsensus: return "mvc";
    case Workload::kVectorConsensus: return "vc";
    case Workload::kAtomicBroadcast: return "ab";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "rb") return Workload::kReliableBroadcast;
  if (name == "eb") return Workload::kEchoBroadcast;
  if (name == "bc") return Workload::kBinaryConsensus;
  if (name == "mvc") return Workload::kMultiValuedConsensus;
  if (name == "vc") return Workload::kVectorConsensus;
  if (name == "ab") return Workload::kAtomicBroadcast;
  return std::nullopt;
}

LayerRun::LayerRun(Cluster& c, Workload w, std::uint64_t seq, Inputs in,
                   Observer observe)
    : c_(c),
      w_(w),
      seq_(seq),
      in_(std::move(in)),
      observe_(std::move(observe)),
      ab_roots_(c.n(), nullptr),
      propose_(c.n()),
      bcast_(c.n()),
      has_outcome_(c.n(), false),
      bits_(c.n()),
      mvc_(c.n()),
      vc_(c.n()),
      delivered_(c.n()),
      ab_(c.n(), c.stack(0).config().ab_batch.enabled) {
  const bool broadcast = w == Workload::kReliableBroadcast ||
                         w == Workload::kEchoBroadcast;
  if (broadcast &&
      (in_.calls.size() != 1 || in_.calls[0].payloads.size() != 1)) {
    throw std::invalid_argument("LayerRun: rb/eb takes one origin and payload");
  }
  const std::vector<ProcessId> at = in_.at.empty() ? c.live() : in_.at;
  for (ProcessId p : at) join(p);
  for (ProcessId p : at) {
    if (propose_[p]) c_.call(p, propose_[p]);
  }
  for (const Call& call : in_.calls) send(call.p, call.payloads);
}

void LayerRun::join(ProcessId p) {
  const auto outcome = [this](Outcome o) {
    has_outcome_[o.at] = true;
    if (observe_) observe_(o);
  };
  switch (w_) {
    case Workload::kReliableBroadcast:
    case Workload::kEchoBroadcast: {
      const ProcessId origin = in_.calls.front().p;
      const InstanceId id = InstanceId::root(
          w_ == Workload::kReliableBroadcast ? ProtocolType::kReliableBroadcast
                                             : ProtocolType::kEchoBroadcast,
          seq_);
      auto deliver = [this, p, outcome](Slice payload) {
        delivered_[p] = payload.to_bytes();
        outcome({.at = p, .value = &*delivered_[p]});
      };
      if (w_ == Workload::kReliableBroadcast) {
        RbAlgorithm& rb =
            c_.create_rb(p, id, origin, Attribution::kPayload, deliver);
        bcast_[p] = [&rb](Bytes b) {
          rb.bcast(std::move(b));
          return std::uint64_t{0};
        };
      } else {
        auto& eb = c_.create_root<EchoBroadcast>(
            p, id, origin, Attribution::kPayload, deliver);
        bcast_[p] = [&eb](Bytes b) {
          eb.bcast(std::move(b));
          return std::uint64_t{0};
        };
      }
      break;
    }
    case Workload::kBinaryConsensus: {
      BcAlgorithm& bc = c_.create_bc(
          p, InstanceId::root(ProtocolType::kBinaryConsensus, seq_),
          Attribution::kAgreement, [this, p, outcome](bool v) {
            bits_[p] = v;
            outcome({.at = p, .bit = v});
          });
      propose_[p] = [this, &bc, p] { bc.propose(in_.bits[p]); };
      break;
    }
    case Workload::kMultiValuedConsensus: {
      auto& mvc = c_.create_root<MultiValuedConsensus>(
          p, InstanceId::root(ProtocolType::kMultiValuedConsensus, seq_),
          Attribution::kAgreement,
          [this, p, outcome](std::optional<Bytes> v) {
            mvc_[p] = std::move(v);
            const auto& d = *mvc_[p];
            outcome({.at = p, .value = d ? &*d : nullptr});
          });
      propose_[p] = [this, &mvc, p] { mvc.propose(in_.values[p]); };
      break;
    }
    case Workload::kVectorConsensus: {
      auto& vc = c_.create_root<VectorConsensus>(
          p, InstanceId::root(ProtocolType::kVectorConsensus, seq_),
          Attribution::kAgreement,
          [this, p, outcome](VectorConsensus::Vector v) {
            vc_[p] = std::move(v);
            outcome({.at = p, .vector = &*vc_[p]});
          });
      propose_[p] = [this, &vc, p] { vc.propose(in_.values[p]); };
      break;
    }
    case Workload::kAtomicBroadcast: {
      auto& ab = c_.create_root<AtomicBroadcast>(
          p, InstanceId::root(ProtocolType::kAtomicBroadcast, seq_),
          [this, p](ProcessId origin, std::uint64_t rbid, Slice payload) {
            ab_.delivered(p, origin, rbid, payload.to_bytes());
            if (observe_) {
              observe_({.at = p,
                        .value = &ab_.log(p).back().payload,
                        .origin = origin,
                        .rbid = rbid});
            }
          });
      ab_roots_[p] = &ab;
      bcast_[p] = [&ab](Bytes b) { return ab.bcast(std::move(b)); };
      break;
    }
  }
}

std::uint64_t LayerRun::bcast(ProcessId p, Bytes payload) {
  const std::uint64_t rbid = bcast_[p](Bytes(payload));
  if (w_ == Workload::kAtomicBroadcast && !c_.faulty(p)) {
    ab_.sent(p, rbid, std::move(payload));
  }
  return rbid;
}

void LayerRun::send(ProcessId p, std::vector<Bytes> payloads) {
  if (!bcast_[p]) return;
  c_.call(p, [&] {
    for (Bytes& b : payloads) bcast(p, std::move(b));
  });
}

AtomicBroadcast& LayerRun::ab_root(ProcessId p) {
  if (ab_roots_[p] == nullptr) {
    throw std::logic_error("LayerRun: no atomic broadcast root at process");
  }
  return *ab_roots_[p];
}

bool LayerRun::done(const std::vector<ProcessId>& correct) const {
  if (w_ == Workload::kAtomicBroadcast) return ab_.all_delivered(correct);
  const bool broadcast = w_ == Workload::kReliableBroadcast ||
                         w_ == Workload::kEchoBroadcast;
  if (broadcast && c_.faulty(in_.calls.front().p)) return true;
  for (ProcessId p : correct) {
    if (!has_outcome_[p]) return false;
  }
  return true;
}

void LayerRun::check(oracle::Report& r, const std::vector<ProcessId>& correct,
                     bool complete) const {
  switch (w_) {
    case Workload::kReliableBroadcast:
    case Workload::kEchoBroadcast: {
      const bool rb = w_ == Workload::kReliableBroadcast;
      const char* layer = rb ? "rb" : "eb";
      const Call& sent = in_.calls.front();
      oracle::broadcast_agreement(r, correct, delivered_, layer);
      if (oracle::detail::contains(correct, sent.p)) {
        oracle::broadcast_correct_origin(r, correct, sent.payloads.front(),
                                         delivered_, layer, complete);
      }
      if (rb && complete) oracle::rb_totality(r, correct, delivered_);
      break;
    }
    case Workload::kBinaryConsensus:
      oracle::check_bc(r, correct, in_.bits, bits_, complete);
      break;
    case Workload::kMultiValuedConsensus: {
      oracle::mvc_agreement(r, correct, mvc_);
      // No-creation only holds against known proposals; with Byzantine
      // processes the oracle cannot know what they "proposed".
      bool byzantine = false;
      for (ProcessId p = 0; p < c_.n(); ++p) byzantine |= c_.byzantine(p);
      if (!byzantine) oracle::mvc_no_creation(r, correct, in_.values, mvc_);
      if (complete) oracle::mvc_termination(r, correct, mvc_);
      break;
    }
    case Workload::kVectorConsensus:
      oracle::check_vc(r, correct, in_.values, vc_, max_faults(c_.n()),
                       complete);
      break;
    case Workload::kAtomicBroadcast:
      ab_.check(r, correct, complete);
      break;
  }
}

}  // namespace ritas::sim
