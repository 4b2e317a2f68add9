#include "core/binary_consensus.h"

#include <cassert>
#include <stdexcept>

#include "common/log.h"

namespace ritas {

// Decide/adopt thresholds. For n = 3f+1 these are exactly the paper's
// 2f+1 and f+1. For group sizes with slack (n > 3f+1) the paper's literal
// constants would let two different values reach the adopt threshold in
// different (n-f)-snapshots of the same universe, so we use the safe
// generalization: decide at floor((n+f)/2)+1 (any two snapshots then agree
// on the adopted value) and adopt at max(f+1, n - decide + 1).
namespace {
std::uint32_t decide_quorum(const Quorums& q) { return (q.n + q.f) / 2 + 1; }
std::uint32_t adopt_quorum(const Quorums& q) {
  const std::uint32_t alt = q.n - decide_quorum(q) + 1;
  return std::max(q.f + 1, alt);
}
}  // namespace

BinaryConsensus::BinaryConsensus(ProtocolStack& stack, Protocol* parent,
                                 InstanceId id, Attribution attr,
                                 DecideFn decide)
    : BcAlgorithm(stack, parent, std::move(id)),
      attr_(attr),
      decide_(std::move(decide)) {}

std::uint64_t BinaryConsensus::child_seq(std::uint32_t round, int step,
                                         ProcessId origin, std::uint32_t n) {
  return (static_cast<std::uint64_t>(round) * 3 +
          static_cast<std::uint64_t>(step - 1)) * n + origin;
}

bool BinaryConsensus::decode_child_seq(std::uint64_t seq, std::uint32_t n,
                                       ChildKey& out) {
  out.origin = static_cast<ProcessId>(seq % n);
  const std::uint64_t t = seq / n;
  out.step = static_cast<int>(t % 3) + 1;
  const std::uint64_t r = t / 3;
  if (r == 0 || r > 0xffffffffULL) return false;
  out.round = static_cast<std::uint32_t>(r);
  return true;
}

BinaryConsensus::RoundState& BinaryConsensus::round_state(std::uint32_t r) {
  auto it = rounds_.find(r);
  if (it == rounds_.end()) {
    it = rounds_.emplace(r, RoundState(stack_.n())).first;
  }
  return it->second;
}

void BinaryConsensus::ensure_round_children(std::uint32_t r) {
  RoundState& rs = round_state(r);
  if (rs.children_created) return;
  rs.children_created = true;
  for (int step = 1; step <= 3; ++step) {
    for (ProcessId j = 0; j < stack_.n(); ++j) {
      const Component c{ProtocolType::kReliableBroadcast,
                        child_seq(r, step, j, stack_.n())};
      auto deliver = [this, r, step, j](Slice payload) {
        on_rb_deliver(r, step, j, payload);
      };
      // Through the factory: the step values ride whichever RB variant the
      // stack is configured with, so e.g. Bracha BC composes with the
      // Imbs–Raynal broadcast.
      add_child(make_rb(stack_, this, id().child(c), j, attr_,
                        std::move(deliver)));
    }
  }
}

void BinaryConsensus::propose(bool v) {
  if (active_) throw std::logic_error("BinaryConsensus::propose: already active");
  if (Adversary* adv = stack_.adversary()) {
    if (auto o = adv->bc_proposal(v)) v = *o;
  }
  active_ = true;
  value_ = v ? 1 : 0;
  round_ = 1;
  step_ = 1;
  trace(TracePhase::kBcPropose, 0, value_);
  trace(TracePhase::kBcRound, 1);
  ensure_round_children(1);
  broadcast_step(1, 1, value_);
  // Messages may have been tallied before activation; try to make progress.
  try_advance();
}

void BinaryConsensus::broadcast_step(std::uint32_t r, int step,
                                     std::uint8_t value) {
  std::optional<std::uint8_t> v = value;
  if (Adversary* adv = stack_.adversary()) {
    v = adv->bc_step_value(r, step, value);
  }
  if (!v) return;  // adversary chose to stay silent
  trace(TracePhase::kBcStep, r,
        static_cast<std::uint8_t>(step * 8 | std::min<int>(*v, 7)));
  ensure_round_children(r);
  const Component c{ProtocolType::kReliableBroadcast,
                    child_seq(r, step, stack_.self(), stack_.n())};
  auto* rb = static_cast<RbAlgorithm*>(find_child(c));
  assert(rb != nullptr);
  rb->bcast(Bytes{*v});
}

void BinaryConsensus::on_message(ProcessId, std::uint8_t, const Slice&) {
  // All BC traffic flows through reliable broadcast children; a direct
  // message addressed to the BC instance is Byzantine noise.
  drop_invalid();
}

Protocol* BinaryConsensus::spawn_child(const Component& c, bool& drop) {
  drop = false;
  ChildKey key;
  if (c.type != ProtocolType::kReliableBroadcast ||
      !decode_child_seq(c.seq, stack_.n(), key)) {
    drop = true;  // malformed path: never routable
    return nullptr;
  }
  if (halted_ && key.round > round_) {
    drop = true;  // we are done; later rounds will never be created
    return nullptr;
  }
  if (key.round > round_ + kRoundWindow) {
    return nullptr;  // too far ahead: park in the out-of-context table
  }
  ensure_round_children(key.round);
  return find_child(c);
}

void BinaryConsensus::on_rb_deliver(std::uint32_t r, int step, ProcessId origin,
                                    const Slice& payload) {
  if (payload.size() != 1) {
    drop_invalid();
    return;
  }
  const std::uint8_t v = payload[0];
  const bool ok_range = (step == 3) ? v <= kBot : v <= 1;
  if (!ok_range) {
    drop_invalid();
    return;
  }
  StepState& ss = round_state(r).steps[step - 1];
  if (ss.seen[origin]) return;  // RB delivers once; defensive
  ss.seen[origin] = true;
  ss.pending[origin] = v;
  revalidate(r, step);
  try_advance();
}

void BinaryConsensus::revalidate(std::uint32_t r, int step) {
  // Acceptance at (r, step) can only unlock later steps, so walk forward.
  for (;;) {
    auto it = rounds_.find(r);
    if (it == rounds_.end()) return;
    StepState& ss = it->second.steps[step - 1];
    bool any = false;
    for (ProcessId j = 0; j < stack_.n(); ++j) {
      const std::uint8_t v = ss.pending[j];
      if (v == 0xff) continue;
      if (!is_valid(r, step, v)) continue;
      ss.pending[j] = 0xff;
      ss.accepted.push_back(v);
      ++ss.counts[v];
      any = true;
    }
    if (!any) return;
    if (step < 3) {
      ++step;
    } else {
      ++r;
      step = 1;
    }
  }
}

bool BinaryConsensus::is_valid(std::uint32_t r, int step,
                               std::uint8_t v) const {
  if (stack_.config().bc_disable_validation) return true;  // ablation only
  const Quorums& q = stack_.quorums();
  const std::uint32_t nf = q.n_minus_f();

  const StepState* prev = nullptr;
  if (step == 1) {
    if (r == 1) return true;  // paper: step 1 of round 1 is always valid
    auto it = rounds_.find(r - 1);
    if (it == rounds_.end()) return false;
    prev = &it->second.steps[2];
  } else {
    auto it = rounds_.find(r);
    if (it == rounds_.end()) return false;
    prev = &it->second.steps[step - 2];
  }
  const std::uint32_t total = static_cast<std::uint32_t>(prev->accepted.size());
  if (total < nf) return false;
  const std::uint32_t c0 = prev->counts[0];
  const std::uint32_t c1 = prev->counts[1];

  switch (step) {
    case 1: {
      // v must be producible by the end-of-round rule on some (n-f)-subset
      // of accepted step-3 values: the subset must contain fewer than
      // adopt_quorum copies of the opposite value.
      const std::uint32_t opp = (v == 0) ? c1 : c0;
      const std::uint32_t non_opp = total - opp;
      const std::uint32_t forced = nf > non_opp ? nf - non_opp : 0;
      return forced < adopt_quorum(q);
    }
    case 2: {
      // v must be a possible majority of an (n-f)-subset of step-1 values.
      // ceil((n-f)/2) rather than strict majority admits the tie-keep case
      // when n-f is even (see DESIGN.md §5.3).
      const std::uint32_t need = (nf + 1) / 2;
      return (v == 0 ? c0 : c1) >= need;
    }
    case 3: {
      if (v != kBot) {
        // Strict majority of some (n-f)-subset of step-2 values.
        const std::uint32_t need = nf / 2 + 1;
        return (v == 0 ? c0 : c1) >= need;
      }
      // ⊥ requires a subset where neither value is a strict majority.
      const std::uint32_t half = nf / 2;
      return std::min(c0, half) + std::min(c1, half) >= nf;
    }
    default:
      return false;
  }
}

void BinaryConsensus::try_advance() {
  if (!active_ || halted_) return;
  const Quorums& q = stack_.quorums();
  const std::uint32_t nf = q.n_minus_f();

  for (;;) {
    auto it = rounds_.find(round_);
    if (it == rounds_.end()) return;
    StepState& ss = it->second.steps[step_ - 1];
    if (ss.accepted.size() < nf) return;

    // The step rules operate on the first n-f accepted values.
    std::uint32_t c[3] = {0, 0, 0};
    for (std::uint32_t i = 0; i < nf; ++i) ++c[ss.accepted[i]];

    if (step_ == 1) {
      if (c[1] > c[0]) {
        value_ = 1;
      } else if (c[0] > c[1]) {
        value_ = 0;
      }  // tie (n-f even): keep the current value
      // test_weak_bc_quorum: deliberately decide on the step-1 majority at
      // the adopt threshold, skipping the step-2/3 confirmation exchanges —
      // the decide-on-prepare-instead-of-commit bug the schedule explorer
      // must catch. Two processes whose (n-f)-snapshots of a split step-1
      // universe have opposite majorities then decide opposite values.
      if (stack_.config().test_weak_bc_quorum && c[0] != c[1] &&
          c[value_] >= adopt_quorum(q)) {
        decide(value_ == 1, round_);
      }
      step_ = 2;
      broadcast_step(round_, 2, value_);
    } else if (step_ == 2) {
      if (c[0] > nf / 2) {
        value_ = 0;
      } else if (c[1] > nf / 2) {
        value_ = 1;
      } else {
        value_ = kBot;
      }
      step_ = 3;
      broadcast_step(round_, 3, value_);
    } else {
      const std::uint32_t qd = decide_quorum(q);
      const std::uint32_t qa = adopt_quorum(q);
      if (c[0] >= qd || c[1] >= qd) {
        const bool w = c[1] >= qd;
        value_ = w ? 1 : 0;
        decide(w, round_);
      } else if (c[0] >= qa || c[1] >= qa) {
        // If any process decided w this round, qd - f >= qa guarantees w
        // reaches qa in EVERY (n-f)-snapshot and the opposite value cannot
        // (it has at most n - qd < qa copies in the universe), so we adopt
        // w. Both values can reach qa only in rounds where nobody decided
        // (possible when n ≡ 2 mod 3, e.g. a 2-2 tie at n=5); adopting
        // either value is then safe, and the deterministic preference for
        // 1 merely replaces a coin flip.
        value_ = c[1] >= qa ? 1 : 0;
      } else {
        value_ = toss_coin(round_) ? 1 : 0;
        ++stack_.metrics().bc_coin_flips;
        trace(TracePhase::kBcCoin, round_, value_);
      }
      if (decided_ && round_ >= halt_after_round_) {
        halted_ = true;
        return;
      }
      ++round_;
      step_ = 1;
      trace(TracePhase::kBcRound, round_);
      ensure_round_children(round_);
      // Round advanced: messages parked beyond the spawn window may now be
      // routable.
      stack_.retry_ooc(id());
      broadcast_step(round_, 1, value_);
    }
  }
}

bool BinaryConsensus::toss_coin(std::uint32_t r) {
  // Shared with the Crain variant so both derive identical coins.
  return toss_round_coin(stack_, id(), r);
}

void BinaryConsensus::decide(bool w, std::uint32_t r) {
  if (decided_) return;
  decided_ = true;
  decision_ = w;
  decided_round_ = r;
  // Keep participating for one more round so every correct process can
  // gather its quorums, then stop.
  halt_after_round_ = r + 1;
  ++stack_.metrics().bc_decided;
  stack_.metrics().bc_rounds_total += r;
  stack_.metrics().bc_round_hist.add(r);
  trace(TracePhase::kBcDecide, r, w ? 1 : 0);
  complete();
  if (decide_) decide_(w);
}

}  // namespace ritas
