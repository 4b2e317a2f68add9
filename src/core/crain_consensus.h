// Crain's signature-free randomized binary consensus (BcVariant::kCrain,
// after Crain 2020 / Mostéfaoui–Moumen–Raynal 2014).
//
// Where Bracha's protocol (§2.4) runs three full reliable broadcasts per
// process per round, this family exchanges *direct* messages and replaces
// the RB machinery with a binary-value gadget, cutting a round to two
// message steps plus the coin:
//
//   round r, estimate est:
//     broadcast BVAL(r, est)
//     on f+1 BVAL(r, v) and BVAL(r, v) unsent: broadcast BVAL(r, v)
//     on 2f+1 BVAL(r, v): add v to bin_values_r
//     when bin_values_r gains its first value w: broadcast AUX(r, w)
//     wait for n-f AUX(r, *) whose values are all in bin_values_r;
//       vals := the value set of that quorum; s := common coin for r
//       vals = {v}:    est := v; decide v if v = s  (keep participating)
//       vals = {0, 1}: est := s
//
// The BVAL gadget guarantees every value in bin_values was proposed by a
// correct process (2f+1 > 2f carriers include a correct one, and the f+1
// relay keeps Byzantine-only values below every threshold), and that
// bin_values eventually agree across correct processes. Agreement hinges
// on the coin being COMMON: if two correct processes end round r with
// vals = {v} (deciding v) and vals = {0,1} (adopting the coin), the n-f
// AUX quorums intersect in >= n-2f >= f+1 processes, so v is in every
// vals and the {0,1} process adopts s — which equals v exactly when every
// process sees the same s. With private per-process coins the adopter can
// draw 1-v and later decide it: an agreement violation. This variant
// therefore always tosses the dealt coin, whatever coin_mode says
// (core/variants.h, tossed_coin).
//
// Termination uses a DONE gadget instead of Bracha's courtesy round: a
// decider broadcasts DONE(v) and keeps participating in rounds; f+1
// distinct DONE(v) let a process decide v directly (some correct process
// decided v); 2f+1 distinct DONE(v) mean enough correct deciders are
// relaying DONE that everyone will cross f+1, so the instance halts and
// ignores further traffic.
//
// Wire format (docs/PROTOCOLS.md "Variant negotiation & tag encodings"):
// tags 16/17/18 (BVAL/AUX/DONE), payload u32 round LE + u8 value. The tag
// space is disjoint from Bracha BC's (which has no direct messages — its
// traffic rides RB children), so a frame from a peer running the wrong BC
// variant is a counted drop, never confusion. This protocol is a leaf: it
// spawns no children, and child-addressed frames are counted drops.
#pragma once

#include <map>
#include <vector>

#include "core/stack.h"
#include "core/variants.h"

namespace ritas {

class CrainConsensus final : public BcAlgorithm {
 public:
  static constexpr std::uint8_t kBval = 16;
  static constexpr std::uint8_t kAux = 17;
  static constexpr std::uint8_t kDone = 18;

  void propose(bool v) override;

  void on_message(ProcessId from, std::uint8_t tag,
                  const Slice& payload) override;
  Protocol* spawn_child(const Component& c, bool& drop) override;

  bool active() const override { return active_; }
  bool decided() const override { return decided_; }
  bool decision() const override { return decision_; }
  std::uint32_t decided_round() const override { return decided_round_; }

 private:
  friend std::unique_ptr<BcAlgorithm> make_bc(ProtocolStack&, Protocol*,
                                              InstanceId, Attribution,
                                              BcAlgorithm::DecideFn);

  CrainConsensus(ProtocolStack& stack, Protocol* parent, InstanceId id,
                 DecideFn decide);

  struct RoundState {
    bool bval_sent[2] = {false, false};  // our BVAL(v) is out (or omitted)
    bool bin[2] = {false, false};        // bin_values
    bool aux_sent = false;
    std::uint32_t bval_count[2] = {0, 0};
    std::uint32_t aux_count[2] = {0, 0};
    std::vector<bool> bval_seen[2];  // per peer, per value (first only)
    std::vector<bool> aux_seen;      // per peer (first AUX only)
    explicit RoundState(std::uint32_t n) {
      bval_seen[0].assign(n, false);
      bval_seen[1].assign(n, false);
      aux_seen.assign(n, false);
    }
  };

  RoundState& round_state(std::uint32_t r);
  /// Parses `u32 round | u8 value`; false = malformed (caller drops).
  bool parse(const Slice& payload, std::uint32_t& round,
             std::uint8_t& value) const;
  /// True iff `r` is within the accept window (1 .. round_ + window).
  bool round_in_window(std::uint32_t r) const;

  void on_bval(ProcessId from, std::uint32_t r, std::uint8_t v);
  void on_aux(ProcessId from, std::uint32_t r, std::uint8_t v);
  void on_done(ProcessId from, std::uint8_t v);

  /// Broadcasts BVAL/AUX/DONE through the adversary's bc_step_value hook
  /// (steps 1/2/3 respectively); traces kBcStep like Bracha's steps.
  void send_value(std::uint32_t r, int step, std::uint8_t tag,
                  std::uint8_t value);
  void send_bval(std::uint32_t r, std::uint8_t value);
  void maybe_send_aux(std::uint32_t r);
  /// Runs the end-of-round rule on the *current* round as long as its AUX
  /// quorum is complete, advancing round_ (possibly through several
  /// already-complete rounds).
  void try_advance();
  void decide(bool w, std::uint32_t r);

  DecideFn decide_;

  bool active_ = false;
  std::uint8_t est_ = 0;
  std::uint32_t round_ = 1;
  bool decided_ = false;
  bool decision_ = false;
  std::uint32_t decided_round_ = 0;
  bool halted_ = false;

  std::map<std::uint32_t, RoundState> rounds_;
  std::vector<bool> done_seen_;  // per peer (first DONE only)
  std::uint32_t done_count_[2] = {0, 0};
};

}  // namespace ritas
