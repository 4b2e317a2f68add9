#include "sim/explore.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "common/json.h"
#include "common/rng.h"
#include "core/atomic_broadcast.h"
#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/imbs_raynal_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"
#include "sim/cluster.h"
#include "sim/oracles.h"
#include "sim/wan_model.h"

namespace ritas::sim {

namespace {

// Seed-domain separators: every derived stream hashes the schedule seed
// with a distinct tag so streams never collide.
constexpr std::uint64_t kTagSchedule = 0x5c4ed01e00000001ull;
constexpr std::uint64_t kTagProposals = 0x5c4ed01e00000002ull;
constexpr std::uint64_t kTagPayloads = 0x5c4ed01e00000003ull;
constexpr std::uint64_t kTagEquivocate = 0x5c4ed01e00000004ull;
constexpr std::uint64_t kTagProbability = 0x5c4ed01e00000005ull;
constexpr std::uint64_t kTagWan = 0x5c4ed01e00000006ull;

// Workload payload size. Fixed (not configurable) so a Schedule is fully
// self-describing: payload bytes derive from the seed alone.
constexpr std::uint32_t kPayloadLen = 8;

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t st = seed ^ tag;
  return splitmix64(st);
}

/// Trial LAN: the tests' fast profile (shrunk constants, jitter kept for
/// schedule diversity). Exploration wants many trials per second, not
/// calibrated Table-1 timing.
LanModelConfig trial_lan() {
  LanModelConfig lan;
  lan.cpu_send_ns = 5'000;
  lan.cpu_recv_ns = 5'000;
  lan.switch_latency_ns = 10'000;
  lan.jitter_ns = 1'000'000;
  return lan;
}

/// Order-independent-per-call streaming hash over the observation stream.
struct Fingerprint {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  void u64(std::uint64_t v) {
    std::uint64_t st = h ^ (v + 0x9e3779b97f4a7c15ull);
    h = splitmix64(st);
  }
  void bytes(ByteView b) {
    u64(b.size());
    std::uint64_t acc = 0;
    int k = 0;
    for (std::uint8_t c : b) {
      acc = (acc << 8) | c;
      if (++k == 8) {
        u64(acc);
        acc = 0;
        k = 0;
      }
    }
    if (k != 0) u64(acc);
  }
};

Bytes random_payload(Rng& rng, std::uint32_t len) {
  Bytes b(len);
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// Builds one Byzantine process's adversary from the schedule's hook bits.
/// `index` is the process's position in the byzantine list, so per-process
/// streams (equivocation payloads, probabilistic gates) differ.
std::unique_ptr<Adversary> make_adversary(const Schedule& s, std::uint32_t index) {
  auto composed = std::make_unique<ComposedAdversary>();
  const std::uint32_t hooks = s.adversary_hooks;
  if ((hooks & hook::kPaper) != 0) {
    composed->add(std::make_unique<PaperByzantineAdversary>());
  }
  if ((hooks & hook::kStubbornZero) != 0) {
    composed->add(std::make_unique<StubbornStepAdversary>(0));
  }
  if ((hooks & hook::kStubbornOne) != 0) {
    composed->add(std::make_unique<StubbornStepAdversary>(1));
  }
  if ((hooks & hook::kSilentSteps) != 0) {
    composed->add(std::make_unique<StubbornStepAdversary>(0, /*silent_instead=*/true));
  }
  if ((hooks & hook::kEquivocate) != 0) {
    Rng rng(derive(s.seed, kTagEquivocate + index));
    composed->add(std::make_unique<EquivocationAdversary>(random_payload(rng, 8)));
  }
  if ((hooks & hook::kCorruptMatrix) != 0) {
    composed->add(std::make_unique<MatrixCorruptionAdversary>());
  }
  if ((hooks & hook::kOmission) != 0) {
    composed->add(std::make_unique<SelectiveOmissionAdversary>(s.omit_victims));
  }
  std::unique_ptr<Adversary> result = std::move(composed);
  if ((hooks & hook::kProbabilistic) != 0) {
    result = std::make_unique<ProbabilisticAdversary>(
        std::move(result), 0.5, derive(s.seed, kTagProbability + index));
  }
  return result;
}

const char* perturbation_kind_name(Perturbation::Kind k) {
  switch (k) {
    case Perturbation::Kind::kLinkDelay: return "link_delay";
    case Perturbation::Kind::kPartition: return "partition";
    case Perturbation::Kind::kCrash: return "crash";
  }
  return "?";
}

std::optional<Perturbation::Kind> perturbation_kind_from_name(std::string_view s) {
  if (s == "link_delay") return Perturbation::Kind::kLinkDelay;
  if (s == "partition") return Perturbation::Kind::kPartition;
  if (s == "crash") return Perturbation::Kind::kCrash;
  return std::nullopt;
}

auto perturbation_key(const Perturbation& p) {
  return std::tuple(static_cast<std::uint8_t>(p.kind), p.start, p.end, p.a, p.b,
                    p.group_mask, p.delay_ns);
}

}  // namespace

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

std::string schedule_filename(std::uint64_t seed) {
  return "schedule_" + std::to_string(seed) + ".json";
}

std::size_t Schedule::size() const {
  return perturbations.size() +
         static_cast<std::size_t>(std::popcount(adversary_hooks)) +
         byzantine.size() + (messages > 1 ? messages - 1 : 0) +
         (wan.enabled ? 1 : 0);
}

std::string Schedule::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("version", std::uint64_t{1});
  w.field("seed", seed);
  w.field("n", static_cast<std::uint64_t>(n));
  w.field("workload", workload_name(workload));
  w.field("messages", static_cast<std::uint64_t>(messages));
  w.field("max_events", max_events);
  w.field("coin_mode", coin_mode == CoinMode::kDealt ? "dealt" : "local");
  w.field("weak_bc_quorum", weak_bc_quorum);
  w.field("bc_disable_validation", bc_disable_validation);
  w.field("mvc_vect_via_rb", mvc_vect_via_rb);
  w.field("ab_batching", ab_batching);
  w.field("rb_variant", rb_variant_name(variants.rb));
  w.field("bc_variant", bc_variant_name(variants.bc));
  w.key("byzantine").begin_array();
  for (ProcessId p : byzantine) w.value(static_cast<std::uint64_t>(p));
  w.end_array();
  w.field("adversary_hooks", static_cast<std::uint64_t>(adversary_hooks));
  w.field("omit_victims", omit_victims);
  w.key("perturbations").begin_array();
  for (const Perturbation& p : perturbations) {
    w.begin_object();
    w.field("kind", perturbation_kind_name(p.kind));
    w.field("a", static_cast<std::uint64_t>(p.a));
    w.field("b", static_cast<std::uint64_t>(p.b));
    w.field("group_mask", static_cast<std::uint64_t>(p.group_mask));
    w.field("start", p.start);
    w.field("end", p.end);
    w.field("delay_ns", p.delay_ns);
    w.end_object();
  }
  w.end_array();
  // Legacy default: a LAN-only schedule serializes without a "wan" member,
  // so artifacts written before the WAN dimension replay unchanged.
  if (wan.enabled) {
    w.key("wan").begin_object();
    w.field("sites", static_cast<std::uint64_t>(wan.sites));
    w.field("jitter_permille", static_cast<std::uint64_t>(wan.jitter_permille));
    w.field("loss_ppm", static_cast<std::uint64_t>(wan.loss_ppm));
    w.field("rto_ns", wan.rto_ns);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::optional<Schedule> Schedule::from_json(std::string_view text) {
  const auto doc = json_parse(text);
  if (!doc) return std::nullopt;
  const JsonValue* v = &*doc;
  // The CLI wraps the schedule in a report object; accept both forms.
  if (const JsonValue* inner = v->get("schedule")) v = inner;

  Schedule s;
  const auto version = v->u64_at("version");
  if (!version || *version != 1) return std::nullopt;
  const auto seed = v->u64_at("seed");
  if (!seed) return std::nullopt;
  s.seed = *seed;
  const auto n = v->u64_at("n");
  if (!n || *n == 0 || *n > 32) return std::nullopt;
  s.n = static_cast<std::uint32_t>(*n);
  const auto wl = v->string_at("workload");
  if (!wl) return std::nullopt;
  const auto workload = workload_from_name(*wl);
  if (!workload) return std::nullopt;
  s.workload = *workload;
  const auto messages = v->u64_at("messages");
  if (!messages || *messages == 0 || *messages > 65536) return std::nullopt;
  s.messages = static_cast<std::uint32_t>(*messages);
  const auto max_events = v->u64_at("max_events");
  if (!max_events || *max_events == 0) return std::nullopt;
  s.max_events = *max_events;
  const auto coin = v->string_at("coin_mode");
  if (!coin) return std::nullopt;
  if (*coin == "local") {
    s.coin_mode = CoinMode::kLocal;
  } else if (*coin == "dealt") {
    s.coin_mode = CoinMode::kDealt;
  } else {
    return std::nullopt;
  }
  s.weak_bc_quorum = v->bool_at("weak_bc_quorum").value_or(false);
  s.bc_disable_validation = v->bool_at("bc_disable_validation").value_or(false);
  s.mvc_vect_via_rb = v->bool_at("mvc_vect_via_rb").value_or(false);
  s.ab_batching = v->bool_at("ab_batching").value_or(false);
  {
    const auto rb = rb_variant_from_name(
        v->string_at("rb_variant").value_or("bracha"));
    const auto bc = bc_variant_from_name(
        v->string_at("bc_variant").value_or("bracha"));
    if (!rb || !bc) return std::nullopt;  // unknown variant name
    s.variants = {*rb, *bc};
    // A schedule a stack would refuse to construct is not replayable.
    try {
      validate_variants(s.variants, s.n,
                        s.variants.bc == BcVariant::kCrain ? CoinMode::kDealt
                                                           : s.coin_mode);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  }

  if (const JsonValue* byz = v->get("byzantine")) {
    if (byz->kind != JsonValue::Kind::kArray) return std::nullopt;
    for (const JsonValue& e : byz->array) {
      const auto p = e.as_u64();
      if (!p || *p >= s.n) return std::nullopt;
      s.byzantine.push_back(static_cast<ProcessId>(*p));
    }
    std::sort(s.byzantine.begin(), s.byzantine.end());
    s.byzantine.erase(std::unique(s.byzantine.begin(), s.byzantine.end()),
                      s.byzantine.end());
  }
  const auto hooks = v->u64_at("adversary_hooks");
  if (hooks) {
    if (*hooks > hook::kAll) return std::nullopt;
    s.adversary_hooks = static_cast<std::uint32_t>(*hooks);
  }
  s.omit_victims = v->u64_at("omit_victims").value_or(0);

  if (const JsonValue* perts = v->get("perturbations")) {
    if (perts->kind != JsonValue::Kind::kArray) return std::nullopt;
    if (perts->array.size() > 4096) return std::nullopt;
    for (const JsonValue& e : perts->array) {
      Perturbation p;
      const auto kind = e.string_at("kind");
      if (!kind) return std::nullopt;
      const auto k = perturbation_kind_from_name(*kind);
      if (!k) return std::nullopt;
      p.kind = *k;
      const auto a = e.u64_at("a").value_or(0);
      const auto b = e.u64_at("b").value_or(0);
      if (a >= s.n || b >= s.n) return std::nullopt;
      p.a = static_cast<ProcessId>(a);
      p.b = static_cast<ProcessId>(b);
      const auto mask = e.u64_at("group_mask").value_or(0);
      if (mask > 0xffffffffull) return std::nullopt;
      p.group_mask = static_cast<std::uint32_t>(mask);
      p.start = e.u64_at("start").value_or(0);
      p.end = e.u64_at("end").value_or(0);
      if (p.end < p.start) return std::nullopt;
      p.delay_ns = e.u64_at("delay_ns").value_or(0);
      s.perturbations.push_back(p);
    }
  }

  if (const JsonValue* wan = v->get("wan")) {
    if (wan->kind != JsonValue::Kind::kObject) return std::nullopt;
    s.wan.enabled = true;
    const auto sites = wan->u64_at("sites").value_or(4);
    if (sites == 0 || sites > kCanonicalSites) return std::nullopt;
    s.wan.sites = static_cast<std::uint32_t>(sites);
    const auto jitter = wan->u64_at("jitter_permille").value_or(100);
    if (jitter > 1000) return std::nullopt;
    s.wan.jitter_permille = static_cast<std::uint32_t>(jitter);
    const auto loss = wan->u64_at("loss_ppm").value_or(0);
    if (loss >= 1'000'000) return std::nullopt;
    s.wan.loss_ppm = static_cast<std::uint32_t>(loss);
    s.wan.rto_ns = wan->u64_at("rto_ns").value_or(200 * kMillisecond);
  }
  return s;
}

Schedule Explorer::make_schedule(std::uint64_t trial_seed) const {
  Schedule s;
  s.seed = trial_seed;
  s.n = cfg_.n;
  s.workload = cfg_.workload;
  s.messages = std::max(1u, cfg_.messages);
  s.max_events = cfg_.max_events;
  s.coin_mode = cfg_.coin_mode;
  s.weak_bc_quorum = cfg_.weak_bc_quorum;
  s.bc_disable_validation = cfg_.bc_disable_validation;
  s.mvc_vect_via_rb = cfg_.mvc_vect_via_rb;
  s.ab_batching = cfg_.ab_batching;
  s.variants = cfg_.variants;
  s.wan = cfg_.wan;
  // Crain's agreement argument needs the common coin; record it in the
  // schedule so a replay reconstructs the identical stack.
  if (s.variants.bc == BcVariant::kCrain) s.coin_mode = CoinMode::kDealt;

  Rng rng(derive(trial_seed, kTagSchedule));
  std::uint32_t f = max_faults(cfg_.n);
  // The fault budget respects the weakest configured layer: Imbs–Raynal
  // only tolerates t = (n-1)/5.
  if (s.variants.rb == RbVariant::kImbsRaynal) {
    f = std::min(f, ImbsRaynalBroadcast::max_faults_ir(cfg_.n));
  }
  const std::uint32_t fault_budget = std::min(cfg_.max_faults, f);

  // Partition the fault budget between Byzantine processes and crashes.
  std::vector<ProcessId> perm(cfg_.n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), rng);
  // Bias toward the full Byzantine budget: clean runs almost never violate
  // safety, so most of the trial budget should go to faulty configurations
  // (one in four trials still draws a uniform fault count for coverage).
  std::uint32_t n_byz = fault_budget;
  if (fault_budget > 0 && rng.below(4) == 0) {
    n_byz = static_cast<std::uint32_t>(rng.below(fault_budget + 1));
  }
  const std::uint32_t n_crash =
      fault_budget == n_byz
          ? 0
          : static_cast<std::uint32_t>(rng.below(fault_budget - n_byz + 1));
  for (std::uint32_t i = 0; i < n_byz; ++i) s.byzantine.push_back(perm[i]);
  std::sort(s.byzantine.begin(), s.byzantine.end());
  for (std::uint32_t i = 0; i < n_crash; ++i) {
    Perturbation p;
    p.kind = Perturbation::Kind::kCrash;
    p.a = perm[n_byz + i];
    p.start = rng.below(cfg_.horizon);
    p.end = p.start;
    s.perturbations.push_back(p);
  }

  if (n_byz > 0 && (cfg_.allowed_hooks & hook::kAll) != 0) {
    do {
      s.adversary_hooks =
          static_cast<std::uint32_t>(rng.next()) & cfg_.allowed_hooks & hook::kAll;
    } while (s.adversary_hooks == 0);
    // Selective omission is the strongest schedule-splitter: an otherwise
    // protocol-following Byzantine process contributes values every
    // correct process will accept, but hands them to only part of the
    // group — different quorum snapshots at different processes. (Loud
    // attacks like stubborn step values are weaker here: the validation
    // rule filters them, turning the attacker into a silent crash.) Three
    // quarters of faulty trials get omission on top of whatever they drew.
    if (rng.below(4) != 0) {
      s.adversary_hooks |= cfg_.allowed_hooks & hook::kOmission;
    }
    if ((s.adversary_hooks & hook::kOmission) != 0) {
      const std::uint64_t all =
          cfg_.n >= 64 ? ~0ull : ((1ull << cfg_.n) - 1);
      do {
        s.omit_victims = rng.next() & all;
      } while (s.omit_victims == 0);
    }
  }

  const std::uint32_t n_pert =
      static_cast<std::uint32_t>(rng.below(cfg_.max_perturbations + 1));
  for (std::uint32_t i = 0; i < n_pert; ++i) {
    Perturbation p;
    p.start = rng.below(cfg_.horizon);
    p.end = p.start + 1 + rng.below(cfg_.horizon / 2 + 1);
    if (cfg_.n < 3 || rng.coin()) {
      p.kind = Perturbation::Kind::kLinkDelay;
      p.a = static_cast<ProcessId>(rng.below(cfg_.n));
      p.b = static_cast<ProcessId>(rng.below(cfg_.n));
      if (p.b == p.a) p.b = static_cast<ProcessId>((p.a + 1) % cfg_.n);
      p.delay_ns = 1 + rng.below(cfg_.max_delay);
    } else {
      p.kind = Perturbation::Kind::kPartition;
      // Non-empty proper subset cut.
      const std::uint32_t all =
          cfg_.n >= 32 ? 0xffffffffu : (1u << cfg_.n) - 1;
      p.group_mask = 1 + static_cast<std::uint32_t>(rng.below(all - 1));
    }
    s.perturbations.push_back(p);
  }
  return s;
}

TrialResult Explorer::run_trial(const Schedule& s) {
  TrialResult out;
  const std::uint32_t n = s.n;
  const std::uint32_t f = max_faults(n);
  const std::uint32_t messages = std::max(1u, s.messages);

  // Statically faulty processes: Byzantine from t=0, plus scheduled
  // crashes. Workload goals and "sent by a correct process" accounting
  // exclude them (a process that crashes mid-run is not correct).
  std::vector<bool> faulty(n, false);
  for (ProcessId p : s.byzantine) {
    if (p < n) faulty[p] = true;
  }
  for (const Perturbation& p : s.perturbations) {
    if (p.kind == Perturbation::Kind::kCrash && p.a < n) faulty[p.a] = true;
  }

  ClusterOptions o;
  o.n = n;
  o.seed = s.seed;
  o.lan = trial_lan();
  o.stack.coin_mode = s.coin_mode;
  o.stack.variants = s.variants;
  // Defensive normalization for hand-written schedules: a Crain stack
  // refuses to construct with private coins.
  if (s.variants.bc == BcVariant::kCrain) o.stack.coin_mode = CoinMode::kDealt;
  o.stack.test_weak_bc_quorum = s.weak_bc_quorum;
  o.stack.bc_disable_validation = s.bc_disable_validation;
  o.stack.mvc_vect_via_rb = s.mvc_vect_via_rb;
  o.stack.ab_batch.enabled = s.ab_batching;
  o.byzantine = s.byzantine;
  auto byz_index = std::make_shared<std::uint32_t>(0);
  o.adversary_factory = [&s, byz_index] { return make_adversary(s, (*byz_index)++); };
  for (const Perturbation& p : s.perturbations) {
    if (p.kind == Perturbation::Kind::kCrash) {
      o.timed_crashes.emplace_back(p.a, p.start);
    }
  }

  // Observation state — declared before the Cluster so protocol callbacks
  // referencing it can never dangle. The WAN model lives here too: the
  // network's delay policy captures it.
  std::optional<WanModel> wan_model;
  if (s.wan.enabled) {
    WanProfileOptions wo;
    wo.sites = s.wan.sites;
    wo.jitter_permille = s.wan.jitter_permille;
    wo.loss_ppm = s.wan.loss_ppm;
    wo.rto_ns = s.wan.rto_ns;
    wan_model.emplace(wan_profile(n, wo), derive(s.seed, kTagWan));
  }
  Fingerprint fp;
  std::vector<std::vector<bool>> bc_proposals;
  std::vector<std::vector<std::optional<bool>>> bc_decisions;
  std::vector<std::vector<Bytes>> proposals;  // mvc/vc/rb/eb payloads
  std::vector<std::vector<std::optional<oracle::MvcDecision>>> mvc_decisions;
  std::vector<std::vector<std::optional<oracle::VcVector>>> vc_decisions;
  std::vector<std::vector<std::optional<Bytes>>> delivered;  // [m][p]
  oracle::AbRecorder ab(n, o.stack.ab_batch.enabled);

  Cluster c(o);
  c.network().set_delay_policy([&s, &wan_model](ProcessId from, ProcessId to,
                                                Time now) -> Time {
    // WAN extra first, scheduled perturbations layered on top.
    Time extra = wan_model ? wan_model->extra_delay(from, to, now) : 0;
    for (const Perturbation& p : s.perturbations) {
      if (now < p.start || now >= p.end) continue;
      if (p.kind == Perturbation::Kind::kLinkDelay) {
        if (p.a == from && p.b == to) extra += p.delay_ns;
      } else if (p.kind == Perturbation::Kind::kPartition) {
        const bool from_a = ((p.group_mask >> from) & 1u) != 0;
        const bool to_a = ((p.group_mask >> to) & 1u) != 0;
        // Frames crossing the cut are held until the partition heals.
        if (from_a != to_a) extra = std::max(extra, p.end - now);
      }
    }
    return extra;
  });

  Rng prop_rng(derive(s.seed, kTagProposals));
  Rng payload_rng(derive(s.seed, kTagPayloads));

  std::function<bool()> goal;
  std::function<void(oracle::Report&, bool)> check;

  switch (s.workload) {
    case Workload::kBinaryConsensus: {
      bc_proposals.assign(messages, std::vector<bool>(n));
      bc_decisions.assign(messages,
                          std::vector<std::optional<bool>>(n));
      for (auto& row : bc_proposals) {
        if (prop_rng.coin()) {
          // Balanced split: the adversarially hardest input for binary
          // consensus (unanimity converges in one step regardless of
          // schedule, a split is where ordering decides the outcome).
          for (std::uint32_t p = 0; p < n; ++p) row[p] = (p & 1) != 0;
          std::shuffle(row.begin(), row.end(), prop_rng);
        } else {
          for (std::uint32_t p = 0; p < n; ++p) row[p] = prop_rng.coin();
        }
      }
      std::vector<std::vector<BcAlgorithm*>> insts(
          messages, std::vector<BcAlgorithm*>(n, nullptr));
      for (std::uint32_t m = 0; m < messages; ++m) {
        const InstanceId id =
            InstanceId::root(ProtocolType::kBinaryConsensus, m + 1);
        for (ProcessId p : c.live()) {
          insts[m][p] = &c.create_bc(
              p, id, Attribution::kAgreement, [&, m, p](bool v) {
                bc_decisions[m][p] = v;
                fp.u64((std::uint64_t{1} << 56) | (std::uint64_t{m} << 32) | p);
                fp.u64(v ? 1 : 0);
                fp.u64(c.now());
              });
        }
      }
      for (std::uint32_t m = 0; m < messages; ++m) {
        for (ProcessId p : c.live()) {
          c.call(p, [&, m, p] { insts[m][p]->propose(bc_proposals[m][p]); });
        }
      }
      goal = [&, messages] {
        for (ProcessId p : c.correct_set()) {
          for (std::uint32_t m = 0; m < messages; ++m) {
            if (!bc_decisions[m][p].has_value()) return false;
          }
        }
        return true;
      };
      check = [&, messages](oracle::Report& r, bool complete) {
        const auto correct = c.correct_set();
        for (std::uint32_t m = 0; m < messages; ++m) {
          oracle::check_bc(r, correct, bc_proposals[m], bc_decisions[m], complete);
        }
      };
      break;
    }

    case Workload::kMultiValuedConsensus: {
      proposals.assign(messages, std::vector<Bytes>(n));
      mvc_decisions.assign(
          messages, std::vector<std::optional<oracle::MvcDecision>>(n));
      for (auto& row : proposals) {
        for (std::uint32_t p = 0; p < n; ++p) {
          row[p] = random_payload(prop_rng, 8);
        }
      }
      std::vector<std::vector<MultiValuedConsensus*>> insts(
          messages, std::vector<MultiValuedConsensus*>(n, nullptr));
      for (std::uint32_t m = 0; m < messages; ++m) {
        const InstanceId id =
            InstanceId::root(ProtocolType::kMultiValuedConsensus, m + 1);
        for (ProcessId p : c.live()) {
          insts[m][p] = &c.create_root<MultiValuedConsensus>(
              p, id, Attribution::kAgreement,
              [&, m, p](std::optional<Bytes> v) {
                fp.u64((std::uint64_t{2} << 56) | (std::uint64_t{m} << 32) | p);
                if (v) fp.bytes(*v); else fp.u64(0xbaadull);
                fp.u64(c.now());
                mvc_decisions[m][p] = std::move(v);
              });
        }
      }
      for (std::uint32_t m = 0; m < messages; ++m) {
        for (ProcessId p : c.live()) {
          c.call(p, [&, m, p] { insts[m][p]->propose(proposals[m][p]); });
        }
      }
      goal = [&, messages] {
        for (ProcessId p : c.correct_set()) {
          for (std::uint32_t m = 0; m < messages; ++m) {
            if (!mvc_decisions[m][p].has_value()) return false;
          }
        }
        return true;
      };
      check = [&, messages](oracle::Report& r, bool complete) {
        const auto correct = c.correct_set();
        for (std::uint32_t m = 0; m < messages; ++m) {
          oracle::mvc_agreement(r, correct, mvc_decisions[m]);
          // No-creation only holds against known proposals; with Byzantine
          // processes the oracle cannot know what they "proposed".
          if (s.byzantine.empty()) {
            oracle::mvc_no_creation(r, correct, proposals[m], mvc_decisions[m]);
          }
          if (complete) oracle::mvc_termination(r, correct, mvc_decisions[m]);
        }
      };
      break;
    }

    case Workload::kVectorConsensus: {
      proposals.assign(messages, std::vector<Bytes>(n));
      vc_decisions.assign(messages,
                          std::vector<std::optional<oracle::VcVector>>(n));
      for (auto& row : proposals) {
        for (std::uint32_t p = 0; p < n; ++p) {
          row[p] = random_payload(prop_rng, 8);
        }
      }
      std::vector<std::vector<VectorConsensus*>> insts(
          messages, std::vector<VectorConsensus*>(n, nullptr));
      for (std::uint32_t m = 0; m < messages; ++m) {
        const InstanceId id =
            InstanceId::root(ProtocolType::kVectorConsensus, m + 1);
        for (ProcessId p : c.live()) {
          insts[m][p] = &c.create_root<VectorConsensus>(
              p, id, Attribution::kAgreement,
              [&, m, p](VectorConsensus::Vector v) {
                fp.u64((std::uint64_t{3} << 56) | (std::uint64_t{m} << 32) | p);
                for (const auto& e : v) {
                  if (e) fp.bytes(*e); else fp.u64(0xbaadull);
                }
                fp.u64(c.now());
                vc_decisions[m][p] = std::move(v);
              });
        }
      }
      for (std::uint32_t m = 0; m < messages; ++m) {
        for (ProcessId p : c.live()) {
          c.call(p, [&, m, p] { insts[m][p]->propose(proposals[m][p]); });
        }
      }
      goal = [&, messages] {
        for (ProcessId p : c.correct_set()) {
          for (std::uint32_t m = 0; m < messages; ++m) {
            if (!vc_decisions[m][p].has_value()) return false;
          }
        }
        return true;
      };
      check = [&, messages, f](oracle::Report& r, bool complete) {
        const auto correct = c.correct_set();
        for (std::uint32_t m = 0; m < messages; ++m) {
          oracle::check_vc(r, correct, proposals[m], vc_decisions[m], f, complete);
        }
      };
      break;
    }

    case Workload::kReliableBroadcast:
    case Workload::kEchoBroadcast: {
      const bool rb = s.workload == Workload::kReliableBroadcast;
      proposals.assign(messages, std::vector<Bytes>(1));
      delivered.assign(messages, std::vector<std::optional<Bytes>>(n));
      std::vector<ProcessId> origins(messages);
      for (std::uint32_t m = 0; m < messages; ++m) {
        origins[m] = static_cast<ProcessId>(m % n);
        proposals[m][0] = random_payload(payload_rng, kPayloadLen);
      }
      for (std::uint32_t m = 0; m < messages; ++m) {
        const auto type = rb ? ProtocolType::kReliableBroadcast
                             : ProtocolType::kEchoBroadcast;
        const InstanceId id = InstanceId::root(type, m + 1);
        for (ProcessId p : c.live()) {
          auto sink = [&, m, p](Slice payload) {
            delivered[m][p] = payload.to_bytes();
            fp.u64((std::uint64_t{4} << 56) | (std::uint64_t{m} << 32) | p);
            fp.bytes(*delivered[m][p]);
            fp.u64(c.now());
          };
          if (rb) {
            auto& inst = c.create_rb(
                p, id, origins[m], Attribution::kPayload, sink);
            if (p == origins[m]) {
              c.call(p, [&, m] { inst.bcast(Bytes(proposals[m][0])); });
            }
          } else {
            auto& inst = c.create_root<EchoBroadcast>(
                p, id, origins[m], Attribution::kPayload, sink);
            if (p == origins[m]) {
              c.call(p, [&, m] { inst.bcast(Bytes(proposals[m][0])); });
            }
          }
        }
      }
      goal = [&, messages, origins] {
        for (ProcessId p : c.correct_set()) {
          for (std::uint32_t m = 0; m < messages; ++m) {
            if (!faulty[origins[m]] && !delivered[m][p].has_value()) return false;
          }
        }
        return true;
      };
      check = [&, messages, origins, rb](oracle::Report& r, bool complete) {
        const auto correct = c.correct_set();
        const char* layer = rb ? "rb" : "eb";
        for (std::uint32_t m = 0; m < messages; ++m) {
          oracle::broadcast_agreement(r, correct, delivered[m], layer);
          const bool origin_correct =
              std::find(correct.begin(), correct.end(), origins[m]) !=
              correct.end();
          if (origin_correct) {
            oracle::broadcast_correct_origin(r, correct, proposals[m][0],
                                             delivered[m], layer, complete);
          }
          if (rb && complete) {
            oracle::rb_totality(r, correct, delivered[m]);
          }
        }
      };
      break;
    }

    case Workload::kAtomicBroadcast: {
      std::vector<AtomicBroadcast*> insts(n, nullptr);
      const InstanceId id = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
      for (ProcessId p : c.live()) {
        insts[p] = &c.create_root<AtomicBroadcast>(
            p, id,
            [&, p](ProcessId origin, std::uint64_t rbid, Slice payload) {
              ab.delivered(p, origin, rbid, payload.to_bytes());
              fp.u64((std::uint64_t{5} << 56) | (std::uint64_t{origin} << 32) | p);
              fp.u64(rbid);
              fp.bytes(ab.log(p).back().payload);
              fp.u64(c.now());
            });
      }
      for (std::uint32_t m = 0; m < messages; ++m) {
        for (ProcessId p : c.live()) {
          Bytes payload = random_payload(payload_rng, kPayloadLen);
          c.call(p, [&] {
            const std::uint64_t rbid = insts[p]->bcast(Bytes(payload));
            if (!faulty[p]) ab.sent(p, rbid, std::move(payload));
          });
        }
      }
      if (s.ab_batching) {
        for (ProcessId p : c.live()) {
          c.call(p, [&, p] { insts[p]->flush(); });
        }
      }
      goal = [&] { return ab.all_delivered(c.correct_set()); };
      check = [&](oracle::Report& r, bool complete) {
        ab.check(r, c.correct_set(), complete);
      };
      break;
    }
  }

  // --- drive under the liveness budget ------------------------------------
  std::uint64_t events = 0;
  bool done = goal();
  while (!done && !c.scheduler().empty() && events < s.max_events) {
    c.scheduler().step();
    ++events;
    if ((events & 0xf) == 0 || c.scheduler().empty()) done = goal();
  }
  if (!done) done = goal();
  out.completed = done;
  if (done) {
    // Quiesce so totality/validity-style properties can be judged.
    events += c.scheduler().run(s.max_events);
  } else {
    out.stalled = true;
  }

  oracle::Report report;
  check(report, out.completed && c.scheduler().empty());
  out.violations = std::move(report.violations);
  out.events = events;
  out.end_time = c.now();
  fp.u64(out.events);
  fp.u64(out.end_time);
  out.fingerprint = fp.h;
  return out;
}

std::optional<Finding> Explorer::explore(std::uint64_t first_seed,
                                         std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = first_seed + i;
    Schedule sch = make_schedule(seed);
    const TrialResult r = run_trial(sch);
    ++metrics_.explore_trials;
    if (r.stalled) ++metrics_.explore_stalls;
    const bool safety_bug = !r.violations.empty();
    if (!safety_bug && !(r.stalled && cfg_.stall_is_violation)) continue;
    ++metrics_.explore_violations;
    Finding finding;
    finding.trial_seed = seed;
    finding.schedule = sch;
    finding.from_stall = !safety_bug;
    finding.minimized = shrink(sch, /*want_stall=*/!safety_bug,
                               &finding.shrink_trials);
    finding.result = run_trial(finding.minimized);
    return finding;
  }
  return std::nullopt;
}

Schedule Explorer::shrink(const Schedule& failing, bool want_stall,
                          std::uint32_t* trials_out) {
  std::uint32_t trials = 0;
  const auto still_fails = [&](const Schedule& sch) {
    const TrialResult r = run_trial(sch);
    ++trials;
    ++metrics_.explore_trials;
    if (r.stalled) ++metrics_.explore_stalls;
    return want_stall ? r.stalled : !r.violations.empty();
  };

  Schedule best = failing;
  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Drop perturbations, ddmin-style: big chunks first, then singles.
    std::size_t chunk = std::max<std::size_t>(best.perturbations.size() / 2, 1);
    while (!best.perturbations.empty()) {
      bool dropped = false;
      for (std::size_t i = 0; i < best.perturbations.size(); i += chunk) {
        Schedule t = best;
        const auto from = t.perturbations.begin() + static_cast<std::ptrdiff_t>(i);
        const auto to = t.perturbations.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min(i + chunk, t.perturbations.size()));
        t.perturbations.erase(from, to);
        if (still_fails(t)) {
          best = std::move(t);
          dropped = changed = true;
          break;
        }
      }
      if (dropped) {
        chunk = std::min(chunk,
                         std::max<std::size_t>(best.perturbations.size(), 1));
        continue;
      }
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(chunk / 2, 1);
    }

    // 2. Clear individual adversary hook bits.
    for (std::uint32_t b = 0; b < 8; ++b) {
      const std::uint32_t bit = 1u << b;
      if ((best.adversary_hooks & bit) == 0) continue;
      Schedule t = best;
      t.adversary_hooks &= ~bit;
      if ((t.adversary_hooks & hook::kOmission) == 0) t.omit_victims = 0;
      if (t.adversary_hooks == 0) {
        t.byzantine.clear();  // hookless adversary is honest — drop it whole
        t.omit_victims = 0;
      }
      if (still_fails(t)) {
        best = std::move(t);
        changed = true;
      }
    }

    // 3. Remove Byzantine processes one by one.
    for (std::size_t i = 0; i < best.byzantine.size();) {
      Schedule t = best;
      t.byzantine.erase(t.byzantine.begin() + static_cast<std::ptrdiff_t>(i));
      if (t.byzantine.empty()) {
        t.adversary_hooks = 0;
        t.omit_victims = 0;
      }
      if (still_fails(t)) {
        best = std::move(t);
        changed = true;
      } else {
        ++i;
      }
    }

    // 4. Reduce the workload (fewer parallel instances / messages).
    for (std::uint32_t m = 1; m < best.messages; m *= 2) {
      Schedule t = best;
      t.messages = m;
      if (still_fails(t)) {
        best = std::move(t);
        changed = true;
        break;
      }
    }

    // 5. Drop the WAN overlay: a failure that reproduces on the plain LAN
    // is a simpler artifact.
    if (best.wan.enabled) {
      Schedule t = best;
      t.wan = WanSpec{};
      if (still_fails(t)) {
        best = std::move(t);
        changed = true;
      }
    }
  }

  // Canonical order: the delay policy sums/maxes over all perturbations,
  // so sorting preserves semantics while making artifacts stable.
  std::sort(best.perturbations.begin(), best.perturbations.end(),
            [](const Perturbation& a, const Perturbation& b) {
              return perturbation_key(a) < perturbation_key(b);
            });
  if (trials_out != nullptr) *trials_out = trials;
  return best;
}

}  // namespace ritas::sim
