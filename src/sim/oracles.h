// Per-layer property oracles: the paper's §2 safety definitions as
// executable checks over captured per-process observations.
//
// Every oracle appends human-readable violation strings to a Report
// instead of asserting, so the same checks serve every harness:
//
//   * the schedule-exploration engine (sim/explore.h) runs the full set
//     after every trial and treats a non-empty report as "shrink this
//     schedule and emit an artifact";
//   * the sim campaigns (sim/campaign.h) judge every cell with check_ab,
//     and the sharded cluster (sim/sharded.h) records each group for it;
//   * GoogleTest suites wrap a report in EXPECT_TRUE(r.ok()) << r.text(),
//     over the simulator and over real TCP alike (tests/net_helpers.h's
//     ContextMesh feeds a mesh of real Contexts into an AbRecorder) — one
//     line checks the whole safety set, not just the property the test
//     was written for;
//   * the ritas_explore CLI prints the report verbatim.
//
// Inputs are plain per-process vectors (index = ProcessId); `correct`
// selects which entries the properties quantify over. Oracles never look
// at protocol internals — only at what the application-facing callbacks
// observed — so they hold for any transport and any adversary.
//
// Atomic broadcast message identity lives here too: AbRecorder is the one
// place that turns sends and deliveries into (origin, rbid, slot) names,
// so batched runs get the full AB set, not just total order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/types.h"

namespace ritas::sim::oracle {

struct Report {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  void fail(std::string what) { violations.push_back(std::move(what)); }
  std::string text() const {
    std::string out;
    for (const auto& v : violations) {
      if (!out.empty()) out += "\n";
      out += v;
    }
    return out;
  }
};

namespace detail {
inline std::string pid(ProcessId p) { return "p" + std::to_string(p); }
inline bool contains(const std::vector<ProcessId>& set, ProcessId p) {
  return std::find(set.begin(), set.end(), p) != set.end();
}
inline std::string show(const Bytes& b) {
  std::string s = "\"";
  for (std::uint8_t c : b) {
    if (c >= 0x20 && c < 0x7f) {
      s.push_back(static_cast<char>(c));
    } else {
      static const char* hex = "0123456789abcdef";
      s += "\\x";
      s.push_back(hex[c >> 4]);
      s.push_back(hex[c & 0xf]);
    }
  }
  return s + "\"";
}
}  // namespace detail

// --- binary consensus (§2.4: agreement, validity, termination) ------------

/// Agreement: all correct processes that decided, decided the same bit.
inline void bc_agreement(Report& r, const std::vector<ProcessId>& correct,
                         const std::vector<std::optional<bool>>& decisions) {
  std::optional<std::pair<ProcessId, bool>> first;
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) continue;
    if (!first) {
      first = {p, *decisions[p]};
    } else if (*decisions[p] != first->second) {
      r.fail("bc.agreement: " + detail::pid(first->first) + " decided " +
             std::to_string(first->second) + " but " + detail::pid(p) +
             " decided " + std::to_string(*decisions[p]));
    }
  }
}

/// Validity: if every correct process proposed v, any correct decision is v.
inline void bc_validity(Report& r, const std::vector<ProcessId>& correct,
                        const std::vector<bool>& proposals,
                        const std::vector<std::optional<bool>>& decisions) {
  if (correct.empty()) return;
  bool unanimous = true;
  for (ProcessId p : correct) {
    unanimous = unanimous && proposals[p] == proposals[correct.front()];
  }
  if (!unanimous) return;
  const bool v = proposals[correct.front()];
  for (ProcessId p : correct) {
    if (decisions[p].has_value() && *decisions[p] != v) {
      r.fail("bc.validity: unanimous proposal " + std::to_string(v) + " but " +
             detail::pid(p) + " decided " + std::to_string(*decisions[p]));
    }
  }
}

/// Termination: every correct process decided (call only once the run was
/// given a fair chance to finish — a liveness budget or deadline).
inline void bc_termination(Report& r, const std::vector<ProcessId>& correct,
                           const std::vector<std::optional<bool>>& decisions) {
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) {
      r.fail("bc.termination: " + detail::pid(p) + " never decided");
    }
  }
}

/// The full binary consensus safety set; termination only when
/// `expect_termination`.
inline void check_bc(Report& r, const std::vector<ProcessId>& correct,
                     const std::vector<bool>& proposals,
                     const std::vector<std::optional<bool>>& decisions,
                     bool expect_termination = true) {
  bc_agreement(r, correct, decisions);
  bc_validity(r, correct, proposals, decisions);
  if (expect_termination) bc_termination(r, correct, decisions);
}

// --- multi-valued consensus (§2.5) ----------------------------------------
// Decisions are optional<Bytes>: nullopt = the default value ⊥. The outer
// optional is "did p decide at all".

using MvcDecision = std::optional<Bytes>;

inline std::string mvc_show(const MvcDecision& d) {
  return d.has_value() ? detail::show(*d) : std::string("⊥");
}

/// Agreement: all correct deciders decided the same value (⊥ included).
inline void mvc_agreement(
    Report& r, const std::vector<ProcessId>& correct,
    const std::vector<std::optional<MvcDecision>>& decisions) {
  std::optional<std::pair<ProcessId, MvcDecision>> first;
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) continue;
    if (!first) {
      first = {p, *decisions[p]};
    } else if (*decisions[p] != first->second) {
      r.fail("mvc.agreement: " + detail::pid(first->first) + " decided " +
             mvc_show(first->second) + " but " + detail::pid(p) + " decided " +
             mvc_show(*decisions[p]));
    }
  }
}

/// No creation: a non-⊥ decision must be some process's proposal. When
/// `correct_proposals_only` the decided value must come from a CORRECT
/// process (the §2.5 validity strengthening the stack actually provides:
/// INIT values ride reliable broadcast, so a Byzantine value must still
/// have been proposed by its sender — pass the full proposal set then).
inline void mvc_no_creation(
    Report& r, const std::vector<ProcessId>& correct,
    const std::vector<Bytes>& proposals,
    const std::vector<std::optional<MvcDecision>>& decisions) {
  for (ProcessId p : correct) {
    if (!decisions[p].has_value() || !(*decisions[p]).has_value()) continue;
    const Bytes& v = **decisions[p];
    bool proposed = false;
    for (const Bytes& prop : proposals) proposed = proposed || prop == v;
    if (!proposed) {
      r.fail("mvc.no-creation: " + detail::pid(p) + " decided invented value " +
             detail::show(v));
    }
  }
}

inline void mvc_termination(
    Report& r, const std::vector<ProcessId>& correct,
    const std::vector<std::optional<MvcDecision>>& decisions) {
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) {
      r.fail("mvc.termination: " + detail::pid(p) + " never decided");
    }
  }
}

inline void check_mvc(Report& r, const std::vector<ProcessId>& correct,
                      const std::vector<Bytes>& proposals,
                      const std::vector<std::optional<MvcDecision>>& decisions,
                      bool expect_termination = true) {
  mvc_agreement(r, correct, decisions);
  mvc_no_creation(r, correct, proposals, decisions);
  if (expect_termination) mvc_termination(r, correct, decisions);
}

// --- vector consensus (§2.6) ----------------------------------------------

using VcVector = std::vector<std::optional<Bytes>>;

/// Agreement on one vector.
inline void vc_agreement(Report& r, const std::vector<ProcessId>& correct,
                         const std::vector<std::optional<VcVector>>& decisions) {
  std::optional<ProcessId> first;
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) continue;
    if (!first) {
      first = p;
    } else if (*decisions[p] != *decisions[*first]) {
      r.fail("vc.agreement: " + detail::pid(*first) + " and " + detail::pid(p) +
             " decided different vectors");
    }
  }
}

/// Entry validity: V[i] is p_i's proposal or ⊥ for every CORRECT p_i, and
/// at least f+1 entries came from correct processes.
inline void vc_entries(Report& r, const std::vector<ProcessId>& correct,
                       const std::vector<Bytes>& proposals,
                       const std::vector<std::optional<VcVector>>& decisions,
                       std::uint32_t f) {
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) continue;
    const VcVector& v = *decisions[p];
    if (v.size() != proposals.size()) {
      r.fail("vc.entries: " + detail::pid(p) + " decided a vector of size " +
             std::to_string(v.size()) + ", expected " +
             std::to_string(proposals.size()));
      continue;
    }
    std::uint32_t correct_entries = 0;
    for (ProcessId i = 0; i < v.size(); ++i) {
      if (!v[i].has_value()) continue;
      if (detail::contains(correct, i)) {
        if (*v[i] != proposals[i]) {
          r.fail("vc.entries: " + detail::pid(p) + " vector entry " +
                 std::to_string(i) + " is " + detail::show(*v[i]) +
                 ", not p" + std::to_string(i) + "'s proposal " +
                 detail::show(proposals[i]));
        } else {
          ++correct_entries;
        }
      }
    }
    if (correct_entries < f + 1) {
      r.fail("vc.entries: " + detail::pid(p) + " vector holds only " +
             std::to_string(correct_entries) + " correct entries, need f+1 = " +
             std::to_string(f + 1));
    }
  }
}

inline void vc_termination(Report& r, const std::vector<ProcessId>& correct,
                           const std::vector<std::optional<VcVector>>& decisions) {
  for (ProcessId p : correct) {
    if (!decisions[p].has_value()) {
      r.fail("vc.termination: " + detail::pid(p) + " never decided");
    }
  }
}

inline void check_vc(Report& r, const std::vector<ProcessId>& correct,
                     const std::vector<Bytes>& proposals,
                     const std::vector<std::optional<VcVector>>& decisions,
                     std::uint32_t f, bool expect_termination = true) {
  vc_agreement(r, correct, decisions);
  vc_entries(r, correct, proposals, decisions, f);
  if (expect_termination) vc_termination(r, correct, decisions);
}

// --- reliable / echo broadcast (§2.2 / §2.3) ------------------------------
// One oracle call covers ONE broadcast instance: `delivered[p]` is what
// process p delivered from it (nullopt = nothing yet).

/// RB/EB agreement: every correct process that delivered, delivered the
/// same bytes (holds for both protocols, Byzantine origin included).
inline void broadcast_agreement(Report& r, const std::vector<ProcessId>& correct,
                                const std::vector<std::optional<Bytes>>& delivered,
                                const char* layer) {
  std::optional<std::pair<ProcessId, Bytes>> first;
  for (ProcessId p : correct) {
    if (!delivered[p].has_value()) continue;
    if (!first) {
      first = {p, *delivered[p]};
    } else if (*delivered[p] != first->second) {
      r.fail(std::string(layer) + ".agreement: " + detail::pid(first->first) +
             " delivered " + detail::show(first->second) + " but " +
             detail::pid(p) + " delivered " + detail::show(*delivered[p]));
    }
  }
}

/// Integrity + validity for a CORRECT origin: every correct process
/// delivered exactly `sent` (validity requires the run to have quiesced;
/// pass expect_totality = false to check payload integrity only).
inline void broadcast_correct_origin(
    Report& r, const std::vector<ProcessId>& correct, const Bytes& sent,
    const std::vector<std::optional<Bytes>>& delivered, const char* layer,
    bool expect_totality = true) {
  for (ProcessId p : correct) {
    if (!delivered[p].has_value()) {
      if (expect_totality) {
        r.fail(std::string(layer) + ".validity: correct origin's broadcast never "
               "delivered at " + detail::pid(p));
      }
      continue;
    }
    if (*delivered[p] != sent) {
      r.fail(std::string(layer) + ".integrity: " + detail::pid(p) +
             " delivered " + detail::show(*delivered[p]) + ", origin sent " +
             detail::show(sent));
    }
  }
}

/// RB totality: if ANY correct process delivered, ALL of them must (call
/// after quiesce). Echo broadcast deliberately does not have this.
inline void rb_totality(Report& r, const std::vector<ProcessId>& correct,
                        const std::vector<std::optional<Bytes>>& delivered) {
  bool any = false;
  for (ProcessId p : correct) any = any || delivered[p].has_value();
  if (!any) return;
  for (ProcessId p : correct) {
    if (!delivered[p].has_value()) {
      r.fail("rb.totality: some correct process delivered but " +
             detail::pid(p) + " did not");
    }
  }
}

// --- atomic broadcast (§2.7) ----------------------------------------------
// An AB message is named (origin, rbid, slot). `rbid` is what the origin's
// bcast() returned; with batching every message of a batch shares the
// batch's rbid, and `slot` tells them apart:
//   * a send's slot counts the origin's earlier sends that returned the
//     same rbid (its position in the open batch);
//   * a delivery's slot is its position in the contiguous run of
//     deliveries with that (origin, rbid) at that process —
//     AtomicBroadcast::flush_deliveries hands each batch over in one run.
// Unbatched, every slot is 0 (AbRecorder is told which). AbRecorder applies
// the rule; harnesses feed it and never fill an AbLog or AbSent by hand.

/// One delivery observed at one process, in local delivery order.
struct AbEvent {
  ProcessId origin;
  std::uint64_t rbid;
  std::uint32_t slot;
  Bytes payload;
  friend bool operator==(const AbEvent&, const AbEvent&) = default;
};
using AbLog = std::vector<AbEvent>;

/// (origin, rbid, slot): one atomic broadcast message.
using AbId = std::tuple<ProcessId, std::uint64_t, std::uint32_t>;
/// What was broadcast: message -> payload.
using AbSent = std::map<AbId, Bytes>;

namespace detail {
inline AbId id_of(const AbEvent& e) { return {e.origin, e.rbid, e.slot}; }
inline std::string show(const AbId& id) {
  return "(" + std::to_string(std::get<0>(id)) + "," +
         std::to_string(std::get<1>(id)) + "#" +
         std::to_string(std::get<2>(id)) + ")";
}
inline std::set<AbId> ids(const AbLog& log) {
  std::set<AbId> out;
  for (const AbEvent& e : log) out.insert(id_of(e));
  return out;
}
/// The validity quantifier: the first (p, message) with p in `correct`, the
/// message sent by an origin in `correct`, and p never delivering it.
inline std::optional<std::pair<ProcessId, AbId>> first_undelivered(
    const std::vector<ProcessId>& correct, const std::vector<AbLog>& logs,
    const AbSent& sent) {
  for (ProcessId p : correct) {
    const std::set<AbId> got = ids(logs[p]);
    for (const auto& [id, payload] : sent) {
      if (contains(correct, std::get<0>(id)) && !got.contains(id)) {
        return std::make_pair(p, id);
      }
    }
  }
  return std::nullopt;
}
}  // namespace detail

/// Total order: delivery sequences of correct processes are
/// prefix-identical (the always-checkable form of AB agreement).
inline void ab_total_order(Report& r, const std::vector<ProcessId>& correct,
                           const std::vector<AbLog>& logs) {
  if (correct.empty()) return;
  const ProcessId ref = correct.front();
  for (ProcessId p : correct) {
    const std::size_t k = std::min(logs[p].size(), logs[ref].size());
    for (std::size_t i = 0; i < k; ++i) {
      if (!(logs[p][i] == logs[ref][i])) {
        r.fail("ab.total-order: " + detail::pid(p) + " and " + detail::pid(ref) +
               " diverge at position " + std::to_string(i) + ": " +
               detail::show(detail::id_of(logs[p][i])) + " vs " +
               detail::show(detail::id_of(logs[ref][i])));
        break;  // one divergence per pair is enough noise
      }
    }
  }
}

/// No duplication: no message delivered twice at any correct process.
inline void ab_no_duplicates(Report& r, const std::vector<ProcessId>& correct,
                             const std::vector<AbLog>& logs) {
  for (ProcessId p : correct) {
    std::set<AbId> seen;
    for (const AbEvent& e : logs[p]) {
      if (!seen.insert(detail::id_of(e)).second) {
        r.fail("ab.no-dup: " + detail::pid(p) + " delivered " +
               detail::show(detail::id_of(e)) + " twice");
      }
    }
  }
}

/// No creation: a delivery attributed to a correct origin carries exactly
/// the payload that origin broadcast in that batch slot.
inline void ab_no_creation(Report& r, const std::vector<ProcessId>& correct,
                           const std::vector<AbLog>& logs, const AbSent& sent) {
  for (ProcessId p : correct) {
    for (const AbEvent& e : logs[p]) {
      if (!detail::contains(correct, e.origin)) continue;
      auto it = sent.find(detail::id_of(e));
      if (it == sent.end()) {
        r.fail("ab.no-creation: " + detail::pid(p) + " delivered " +
               detail::show(detail::id_of(e)) +
               " which the correct origin never broadcast");
      } else if (it->second != e.payload) {
        r.fail("ab.no-creation: " + detail::pid(p) + " delivered forged payload " +
               detail::show(e.payload) + " for " +
               detail::show(detail::id_of(e)) + ", origin sent " +
               detail::show(it->second));
      }
    }
  }
}

/// Validity: every message a correct process broadcast is delivered at
/// every correct process (call after quiesce). Both quantifiers range over
/// `correct`: an origin that crashed mid-run is faulty, like any other.
inline void ab_validity(Report& r, const std::vector<ProcessId>& correct,
                        const std::vector<AbLog>& logs, const AbSent& sent) {
  if (const auto miss = detail::first_undelivered(correct, logs, sent)) {
    r.fail("ab.validity: " + detail::show(miss->second) +
           " broadcast by a correct process but never delivered at " +
           detail::pid(miss->first));
  }
}

/// Agreement: a message delivered at one correct process is delivered at
/// every correct process (call after quiesce). Unlike validity this covers
/// faulty origins too — a crashed origin's message reaches all or none.
inline void ab_agreement(Report& r, const std::vector<ProcessId>& correct,
                         const std::vector<AbLog>& logs) {
  if (correct.empty()) return;
  const ProcessId ref = correct.front();
  const std::set<AbId> at_ref = detail::ids(logs[ref]);
  for (ProcessId p : correct) {
    const std::set<AbId> at_p = detail::ids(logs[p]);
    std::vector<AbId> diff;
    std::set_symmetric_difference(at_ref.begin(), at_ref.end(), at_p.begin(),
                                  at_p.end(), std::back_inserter(diff));
    if (diff.empty()) continue;
    const bool ref_has = at_ref.contains(diff.front());
    r.fail("ab.agreement: " + detail::pid(ref_has ? ref : p) + " delivered " +
           detail::show(diff.front()) + " but " +
           detail::pid(ref_has ? p : ref) + " did not");
  }
}

/// The full AB safety set. `complete` gates validity and agreement (they
/// only hold once the run has quiesced); the other three always hold.
inline void check_ab(Report& r, const std::vector<ProcessId>& correct,
                     const std::vector<AbLog>& logs, const AbSent& sent,
                     bool complete = true) {
  ab_total_order(r, correct, logs);
  ab_no_duplicates(r, correct, logs);
  ab_no_creation(r, correct, logs, sent);
  if (complete) {
    ab_validity(r, correct, logs, sent);
    ab_agreement(r, correct, logs);
  }
}

/// Records one atomic broadcast run — every bcast() with the rbid it
/// returned, every delivery at every process — under the slot rule above.
/// Not thread-safe: real-TCP harnesses guard it with their own mutex.
class AbRecorder {
 public:
  /// `batched` is the stack's StackConfig::ab_batch.enabled. Only a batched
  /// run gets slots; unbatched every slot is 0, so any repeated
  /// (origin, rbid) delivery — back to back or not — is a duplicate.
  AbRecorder(std::uint32_t n, bool batched) : logs_(n), batched_(batched) {}

  /// `origin`'s bcast(payload) returned `rbid`.
  void sent(ProcessId origin, std::uint64_t rbid, Bytes payload) {
    std::uint32_t slot = 0;
    auto it = sent_.upper_bound(
        {origin, rbid, std::numeric_limits<std::uint32_t>::max()});
    if (batched_ && it != sent_.begin()) {
      const AbId& last = std::prev(it)->first;
      if (std::get<0>(last) == origin && std::get<1>(last) == rbid) {
        slot = std::get<2>(last) + 1;
      }
    }
    sent_.emplace(AbId{origin, rbid, slot}, std::move(payload));
  }

  /// Process `p` delivered `payload` from (origin, rbid).
  void delivered(ProcessId p, ProcessId origin, std::uint64_t rbid,
                 Bytes payload) {
    AbLog& log = logs_[p];
    const bool same_run = batched_ && !log.empty() &&
                          log.back().origin == origin && log.back().rbid == rbid;
    const std::uint32_t slot = same_run ? log.back().slot + 1 : 0;
    log.push_back({origin, rbid, slot, std::move(payload)});
  }

  /// True once validity holds: every message sent by an origin in
  /// `correct` was delivered at every process in `correct` (the usual
  /// run-until goal).
  bool all_delivered(const std::vector<ProcessId>& correct) const {
    return !detail::first_undelivered(correct, logs_, sent_).has_value();
  }

  /// check_ab over this recording.
  void check(Report& r, const std::vector<ProcessId>& correct,
             bool complete = true) const {
    check_ab(r, correct, logs_, sent_, complete);
  }

  const std::vector<AbLog>& logs() const { return logs_; }
  const AbLog& log(ProcessId p) const { return logs_[p]; }
  const AbSent& sent() const { return sent_; }

 private:
  std::vector<AbLog> logs_;
  AbSent sent_;
  bool batched_;
};

}  // namespace ritas::sim::oracle
