// Shared harness for the paper-replication benchmarks (Table 1, Figures
// 2 and 4-7 of the DSN'06 RITAS paper). Each bench binary builds workloads
// out of these runners and prints the paper's numbers next to the measured
// ones. All experiments use n = 4 on the calibrated simulated LAN, exactly
// the paper's testbed shape.
//
// The runners drive every layer through sim::LayerRun (sim/layer_run.h),
// so each run is also judged by the shared property oracles of
// sim/oracles.h once its row values have been taken: the quiescing a
// complete check needs can never move a row. A bench passes the verdicts
// of all its runs to BenchReport::oracles, its artifact's `oracles` gate.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "sim/cluster.h"
#include "sim/layer_run.h"
#include "sim/oracles.h"

namespace ritas::bench {

using sim::Cluster;
using sim::ClusterOptions;
using sim::Time;

constexpr Time kDeadline = 600 * sim::kSecond;

/// The calibrated model of the paper's testbed (see EXPERIMENTS.md).
inline sim::LanModelConfig paper_lan(bool ipsec) {
  sim::LanModelConfig lan;  // defaults are the calibrated constants
  lan.ipsec = ipsec;
  return lan;
}

/// Table 1's isolated execution of layer `w` on `c`: root `seq`, broadcast
/// sender p0, identical proposals, a 10-byte payload (BC proposes 1).
/// Returns the virtual time from the signal until p0 decided or delivered;
/// then quiesces and judges the run with the shared oracles into `oracles`
/// (termination included, so a run p0 never finished cannot pass).
inline Time isolated_run(Cluster& c, sim::Workload w, std::uint64_t seq,
                         sim::oracle::Report& oracles) {
  const Bytes payload(10, 0x61);
  sim::LayerRun::Inputs in;
  in.bits.assign(c.n(), true);
  in.values.assign(c.n(), payload);
  in.calls = {{0, {payload}}};
  const Time t0 = c.now();
  bool p0_done = false;
  sim::LayerRun run(c, w, seq, std::move(in),
                    [&p0_done](const sim::LayerRun::Outcome& o) {
                      p0_done = p0_done || o.at == 0;
                    });
  c.run_until([&] { return p0_done; }, t0 + kDeadline);
  const Time latency = c.now() - t0;
  c.run_all();  // quiesce: include courtesy rounds and stragglers
  run.check(oracles, c.correct_set(), /*complete=*/true);
  return latency;
}

/// Table 1 workload: N isolated executions of one layer (isolated_run,
/// roots 1..N on one cluster). Returns the mean latency at p0 in
/// microseconds; every run's oracle verdict goes into `oracles`.
inline double isolated_latency_us(sim::Workload w, bool ipsec, int iterations,
                                  std::uint64_t seed,
                                  sim::oracle::Report& oracles,
                                  StackConfig stack_cfg = {}) {
  ClusterOptions o;
  o.n = 4;
  o.seed = seed;
  o.lan = paper_lan(ipsec);
  o.stack = stack_cfg;
  Cluster c(o);
  Sample lat;
  for (int it = 0; it < iterations; ++it) {
    const std::uint64_t seq = static_cast<std::uint64_t>(it) + 1;
    const Time ns = isolated_run(c, w, seq, oracles);
    lat.add(static_cast<double>(ns) / 1e3);  // us
    for (ProcessId p : c.live()) c.destroy_roots(p);
  }
  return lat.mean();
}

enum class Faultload { kFailureFree, kFailStop, kByzantine };

inline const char* faultload_name(Faultload f) {
  switch (f) {
    case Faultload::kFailureFree: return "failure-free";
    case Faultload::kFailStop: return "fail-stop";
    case Faultload::kByzantine: return "Byzantine";
  }
  return "?";
}

/// Appends `from`'s violations to `into`.
inline void merge(sim::oracle::Report& into, const sim::oracle::Report& from) {
  into.violations.insert(into.violations.end(), from.violations.begin(),
                         from.violations.end());
}

struct BurstResult {
  std::uint32_t burst = 0;          // messages actually sent
  double latency_ms = 0;            // signal -> k-th delivery at p0
  double throughput_msgs_s = 0;     // burst / latency
  double agreement_ratio = 0;       // agreement bcasts / all bcasts (Fig 7)
  std::uint64_t ab_rounds = 0;      // agreement rounds at p0
  bool bc_always_one_round = true;  // §4.3 claim
  bool mvc_never_default = true;    // §4.3 claim
  /// The §2.7 AB oracles over the quiesced run (after the figures above).
  sim::oracle::Report oracles;
};

/// Figures 4-6 workload: every (live, counted) sender transmits burst/S
/// messages of msg_bytes inside one call; latency is measured at p0 from
/// the signal to the delivery of the last message.
inline BurstResult run_burst(std::uint32_t burst, std::size_t msg_bytes,
                             Faultload fl, std::uint64_t seed,
                             StackConfig stack_cfg = {}) {
  ClusterOptions o;
  o.n = 4;
  o.seed = seed;
  o.lan = paper_lan(true);
  o.stack = stack_cfg;
  if (fl == Faultload::kFailStop) o.crashed = {3};
  if (fl == Faultload::kByzantine) o.byzantine = {3};
  Cluster c(o);

  const auto senders = c.live();  // Byzantine processes still send (paper)
  const std::uint32_t per = burst / static_cast<std::uint32_t>(senders.size());
  const std::uint32_t total = per * static_cast<std::uint32_t>(senders.size());
  sim::LayerRun::Inputs in;
  for (ProcessId p : senders) {
    in.calls.push_back({p, std::vector<Bytes>(per, Bytes(msg_bytes, 0x62))});
  }

  const Time t0 = c.now();
  sim::LayerRun run(c, sim::Workload::kAtomicBroadcast, 0, std::move(in));
  c.run_until([&] { return run.ab().log(0).size() >= total; }, t0 + kDeadline);

  BurstResult r;
  r.burst = total;
  r.latency_ms = static_cast<double>(c.now() - t0) / 1e6;
  r.throughput_msgs_s =
      r.latency_ms > 0 ? static_cast<double>(total) / (r.latency_ms / 1e3) : 0;
  const Metrics m = c.total_metrics();
  r.agreement_ratio = m.broadcasts_total() > 0
                          ? static_cast<double>(m.broadcasts_agreement()) /
                                static_cast<double>(m.broadcasts_total())
                          : 0;
  r.ab_rounds = c.stack(0).metrics().ab_rounds;
  // §4.3 claims, checked over the correct processes only.
  for (ProcessId p : c.correct_set()) {
    const Metrics& pm = c.stack(p).metrics();
    if (pm.bc_rounds_total != pm.bc_decided) r.bc_always_one_round = false;
    if (pm.mvc_decided_default != 0) r.mvc_never_default = false;
  }
  c.run_all();
  run.check(r.oracles, c.correct_set(), /*complete=*/true);
  return r;
}

/// Averages `runs` seeded executions of run_burst (oracle verdicts merged).
inline BurstResult run_burst_avg(std::uint32_t burst, std::size_t msg_bytes,
                                 Faultload fl, int runs,
                                 StackConfig stack_cfg = {}) {
  BurstResult acc;
  for (int i = 0; i < runs; ++i) {
    BurstResult r = run_burst(burst, msg_bytes, fl,
                              1000 + static_cast<std::uint64_t>(i), stack_cfg);
    acc.burst = r.burst;
    acc.latency_ms += r.latency_ms / runs;
    acc.throughput_msgs_s += r.throughput_msgs_s / runs;
    acc.agreement_ratio += r.agreement_ratio / runs;
    acc.ab_rounds += r.ab_rounds;
    acc.bc_always_one_round = acc.bc_always_one_round && r.bc_always_one_round;
    acc.mvc_never_default = acc.mvc_never_default && r.mvc_never_default;
    merge(acc.oracles, r.oracles);
  }
  acc.ab_rounds /= static_cast<std::uint64_t>(runs);
  return acc;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Run-count override for CI smoke runs: RITAS_BENCH_RUNS=N caps every
/// bench's iteration count so the whole suite finishes in seconds.
inline int bench_runs(int default_runs) {
  if (const char* env = std::getenv("RITAS_BENCH_RUNS")) {
    const int v = std::atoi(env);
    if (v > 0) return v < default_runs ? v : default_runs;
  }
  return default_runs;
}

/// Machine-readable artifact emitted next to each bench's printed table,
/// BENCH_<name>.json: {"bench", "config", "rows", <sections>, "gates",
/// "compare"}, the one description of the bench's gates. `config` holds
/// what changes a row's values, `gates` every check with both operands,
/// and the optional `compare` how rows match the committed baseline in
/// bench/baselines/; tools/check_bench_regression.py reads all three
/// (format: docs/OBSERVABILITY.md "Bench JSON artifacts").
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Adds one config field: a parameter that changes a row's values (runs
  /// actually used, seeds, n, payload bytes, rates), never which rows a
  /// smoke sweep selects. The checker refuses a baseline whose config
  /// differs.
  template <typename T>
  void config(std::string_view key, T v) {
    config_.field(key, v);
  }

  /// Checks `lhs op rhs` (op: < <= > >= == !=), prints the verdict on
  /// stderr, records both operands in the artifact and returns the verdict.
  /// Any failed gate makes exit_code() 1.
  bool gate(std::string_view name, double lhs, std::string_view op,
            double rhs) {
    const bool ok = op == "<"    ? lhs < rhs
                    : op == "<=" ? lhs <= rhs
                    : op == ">"  ? lhs > rhs
                    : op == ">=" ? lhs >= rhs
                    : op == "==" ? lhs == rhs
                    : op == "!=" ? lhs != rhs
                                 : false;
    record_gate(name, number(lhs), op, number(rhs), ok);
    return ok;
  }

  /// A yes/no check, recorded as `ok == true`.
  bool gate(std::string_view name, bool ok) {
    record_gate(name, ok ? "true" : "false", "==", "true", ok);
    return ok;
  }

  /// The `oracles` gate: every run behind the rows passed the shared
  /// property oracles. Call once, after every row; a failure prints the
  /// violations on stderr.
  bool oracles(const sim::oracle::Report& r) {
    if (!r.ok()) std::fprintf(stderr, "%s\n", r.text().c_str());
    return gate("oracles", r.ok());
  }

  /// Declares the baseline comparison, the "compare" object: {"key": [...],
  /// "where": {...}, "subset": bool, "fields": {f: {"exact": true} |
  /// {"better": "higher"|"lower", "tolerance": 0.2}}}.
  void compare(std::string spec) { compare_ = std::move(spec); }

  /// Adds one row; `fill` writes the row object's fields.
  void add_row(const std::function<void(JsonWriter&)>& fill) {
    rows_.push_back(object(fill));
  }

  /// Adds one row to a named auxiliary array emitted next to "rows"
  /// (e.g. bench_buffer's "syscall_rows"): different experiments in one
  /// artifact without disturbing consumers that index the main rows.
  void add_section_row(std::string_view section,
                       const std::function<void(JsonWriter&)>& fill) {
    sections_[std::string(section)].push_back(object(fill));
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// 0 when every gate so far passed, else 1.
  int exit_code() const { return gates_failed_ == 0 ? 0 : 1; }

  /// Writes the artifact into the current directory; true on success.
  /// Assembled by hand so the pre-rendered fragments splice verbatim
  /// (bench names are identifier-safe, no escaping needed).
  bool write() const {
    std::string out = "{\"bench\":\"" + name_ + "\",\"config\":{" +
                      config_.str() + "},\"rows\":" + array(rows_);
    for (const auto& [name, rows] : sections_) {
      out += ",\"" + name + "\":" + array(rows);
    }
    out += ",\"gates\":" + array(gates_);
    if (!compare_.empty()) out += ",\"compare\":" + compare_;
    out += "}\n";
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  /// Shortest round-trip form, so the checker re-derives the same verdict;
  /// a non-finite operand is written as null, which the checker rejects.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }

  static std::string object(const std::function<void(JsonWriter&)>& fill) {
    JsonWriter w;
    w.begin_object();
    fill(w);
    w.end_object();
    return w.take();
  }

  static std::string array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out += ",";
      out += items[i];
    }
    return out + "]";
  }

  void record_gate(std::string_view name, const std::string& lhs,
                   std::string_view op, const std::string& rhs, bool ok) {
    const std::string claim = lhs + " " + std::string(op) + " " + rhs;
    std::fprintf(stderr, "gate %s: %s : %s\n", std::string(name).c_str(),
                 claim.c_str(), ok ? "PASS" : "FAIL");
    if (!ok) ++gates_failed_;
    JsonWriter w;
    w.begin_object().field("name", name);
    gates_.push_back(w.str() + ",\"lhs\":" + lhs + ",\"op\":\"" +
                     std::string(op) + "\",\"rhs\":" + rhs +
                     ",\"ok\":" + (ok ? "true" : "false") + "}");
  }

  std::string name_;
  JsonWriter config_;
  std::vector<std::string> rows_;
  std::map<std::string, std::vector<std::string>> sections_;
  std::vector<std::string> gates_;
  int gates_failed_ = 0;
  std::string compare_;
};

}  // namespace ritas::bench
