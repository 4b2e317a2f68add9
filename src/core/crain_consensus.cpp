#include "core/crain_consensus.h"

#include <stdexcept>

#include "common/serialize.h"

namespace ritas {

CrainConsensus::CrainConsensus(ProtocolStack& stack, Protocol* parent,
                               InstanceId id, DecideFn decide)
    : BcAlgorithm(stack, parent, std::move(id)),
      decide_(std::move(decide)),
      done_seen_(stack.n(), false) {}

CrainConsensus::RoundState& CrainConsensus::round_state(std::uint32_t r) {
  auto it = rounds_.find(r);
  if (it == rounds_.end()) {
    it = rounds_.emplace(r, RoundState(stack_.n())).first;
  }
  return it->second;
}

bool CrainConsensus::parse(const Slice& payload, std::uint32_t& round,
                           std::uint8_t& value) const {
  Reader rd(payload.view());
  round = rd.u32();
  value = rd.u8();
  return rd.done() && value <= 1;
}

bool CrainConsensus::round_in_window(std::uint32_t r) const {
  return r >= 1 && r <= round_ + kRoundWindow;
}

void CrainConsensus::propose(bool v) {
  if (active_) throw std::logic_error("CrainConsensus::propose: already active");
  if (Adversary* adv = stack_.adversary()) {
    if (auto o = adv->bc_proposal(v)) v = *o;
  }
  active_ = true;
  est_ = v ? 1 : 0;
  round_ = 1;
  trace(TracePhase::kBcPropose, 0, est_);
  trace(TracePhase::kBcRound, 1);
  send_bval(1, est_);
  // Messages may have been tallied before activation; try to make progress.
  try_advance();
}

void CrainConsensus::send_value(std::uint32_t r, int step, std::uint8_t tag,
                                std::uint8_t value) {
  std::optional<std::uint8_t> v = value;
  if (Adversary* adv = stack_.adversary()) {
    v = adv->bc_step_value(r, step, value);
  }
  if (!v) return;  // adversary chose to stay silent
  // Reuses Bracha's step trace encoding: BVAL/AUX/DONE as steps 1/2/3. An
  // adversary returning an illegal value (e.g. Bracha's ⊥) is broadcast
  // verbatim; every receiver — including our own loopback — counts it as a
  // parse drop.
  trace(TracePhase::kBcStep, r,
        static_cast<std::uint8_t>(step * 8 | std::min<int>(*v, 7)));
  Writer w(5);
  w.u32(r);
  w.u8(*v);
  broadcast(tag, std::move(w).take());
}

void CrainConsensus::send_bval(std::uint32_t r, std::uint8_t value) {
  RoundState& rs = round_state(r);
  if (rs.bval_sent[value]) return;
  rs.bval_sent[value] = true;  // even if the adversary omits: never retried
  send_value(r, 1, kBval, value);
}

void CrainConsensus::on_message(ProcessId from, std::uint8_t tag,
                                const Slice& payload) {
  if (halted_) return;  // late traffic from correct stragglers is expected
  std::uint32_t r = 0;
  std::uint8_t v = 0;
  if (!parse(payload, r, v)) {
    drop_invalid();
    return;
  }
  switch (tag) {
    case kBval:
      if (!round_in_window(r)) {
        drop_invalid();
        return;
      }
      on_bval(from, r, v);
      return;
    case kAux:
      if (!round_in_window(r)) {
        drop_invalid();
        return;
      }
      on_aux(from, r, v);
      return;
    case kDone:
      // The round field of a DONE is informative (the sender's deciding
      // round); correctness only needs the value.
      on_done(from, v);
      return;
    default:
      // Includes every other variant's tag space: a counted drop, never
      // confusion (docs/PROTOCOLS.md).
      drop_invalid();
  }
}

Protocol* CrainConsensus::spawn_child(const Component& c, bool& drop) {
  // Leaf protocol: all traffic is direct messages, so any child-addressed
  // frame is Byzantine noise.
  (void)c;
  drop = true;
  return nullptr;
}

void CrainConsensus::on_bval(ProcessId from, std::uint32_t r,
                             std::uint8_t v) {
  RoundState& rs = round_state(r);
  if (rs.bval_seen[v][from]) {
    drop_invalid();
    return;
  }
  rs.bval_seen[v][from] = true;
  ++rs.bval_count[v];
  const Quorums& q = stack_.quorums();
  // f+1 carriers include a correct one: safe to echo even if we did not
  // propose v.
  if (rs.bval_count[v] >= q.f + 1 && !rs.bval_sent[v]) {
    send_bval(r, v);
  }
  // 2f+1 carriers pin v into bin_values: a correct majority of any quorum
  // vouches for it.
  if (rs.bval_count[v] >= 2 * q.f + 1 && !rs.bin[v]) {
    rs.bin[v] = true;
    maybe_send_aux(r);
    try_advance();
  }
}

void CrainConsensus::maybe_send_aux(std::uint32_t r) {
  RoundState& rs = round_state(r);
  if (rs.aux_sent) return;
  std::uint8_t w = 0;
  if (!rs.bin[0]) {
    if (!rs.bin[1]) return;  // nothing in bin_values yet
    w = 1;
  }
  rs.aux_sent = true;
  send_value(r, 2, kAux, w);
}

void CrainConsensus::on_aux(ProcessId from, std::uint32_t r, std::uint8_t v) {
  RoundState& rs = round_state(r);
  if (rs.aux_seen[from]) {
    drop_invalid();
    return;
  }
  rs.aux_seen[from] = true;
  ++rs.aux_count[v];
  try_advance();
}

void CrainConsensus::on_done(ProcessId from, std::uint8_t v) {
  if (done_seen_[from]) {
    drop_invalid();
    return;
  }
  done_seen_[from] = true;
  ++done_count_[v];
  const Quorums& q = stack_.quorums();
  if (done_count_[v] >= q.f + 1 && !decided_) {
    // At least one correct process decided v through the round rule, so v
    // is the decision value; adopting it early is the gadget's shortcut.
    // decide() broadcasts our own DONE(v), feeding the relay.
    decide(v != 0, round_);
  }
  if (done_count_[v] >= 2 * q.f + 1) {
    // Enough deciders are relaying DONE(v) that every correct process will
    // cross f+1 without us; stop processing.
    halted_ = true;
  }
}

void CrainConsensus::try_advance() {
  if (!active_ || halted_) return;
  const Quorums& q = stack_.quorums();
  const std::uint32_t nf = q.n_minus_f();

  for (;;) {
    auto it = rounds_.find(round_);
    if (it == rounds_.end()) return;
    RoundState& rs = it->second;
    if (!rs.bin[0] && !rs.bin[1]) return;
    // "A set of n-f AUX whose values all lie in bin_values exists" — by
    // exact counting: AUX for a bin value is usable, others are not (yet;
    // their value may enter bin_values later and re-trigger us).
    const std::uint32_t usable = (rs.bin[0] ? rs.aux_count[0] : 0) +
                                 (rs.bin[1] ? rs.aux_count[1] : 0);
    if (usable < nf) return;

    const bool s = toss_round_coin(stack_, id(), round_);
    ++stack_.metrics().bc_coin_flips;
    trace(TracePhase::kBcCoin, round_, s ? 1 : 0);

    // vals = {v} exactly when an all-v quorum exists; both values reaching
    // n-f is impossible (2(n-f) > n and AUX is first-per-peer).
    int single = -1;
    if (rs.bin[0] && rs.aux_count[0] >= nf) {
      single = 0;
    } else if (rs.bin[1] && rs.aux_count[1] >= nf) {
      single = 1;
    }
    if (single >= 0) {
      est_ = static_cast<std::uint8_t>(single);
      if ((single != 0) == s && !decided_) decide(single != 0, round_);
    } else {
      est_ = s ? 1 : 0;  // vals = {0, 1}: adopt the common coin
    }
    ++round_;
    trace(TracePhase::kBcRound, round_);
    send_bval(round_, est_);
    // Loop: the next round may already be complete (tallies accumulate for
    // every round in the window, not just the current one).
  }
}

void CrainConsensus::decide(bool w, std::uint32_t r) {
  if (decided_) return;
  decided_ = true;
  decision_ = w;
  decided_round_ = r;
  ++stack_.metrics().bc_decided;
  stack_.metrics().bc_rounds_total += r;
  stack_.metrics().bc_round_hist.add(r);
  trace(TracePhase::kBcDecide, r, w ? 1 : 0);
  complete();
  // The DONE gadget: announce the decision and keep participating in
  // rounds until 2f+1 DONEs show everyone can finish without us.
  send_value(r, 3, kDone, w ? 1 : 0);
  if (decide_) decide_(w);
}

}  // namespace ritas
