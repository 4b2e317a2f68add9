// Shared harness for the paper-replication benchmarks (Table 1, Figures
// 4-7 of the DSN'06 RITAS paper). Each bench binary builds workloads out
// of these runners and prints the paper's numbers next to the measured
// ones. All experiments use n = 4 on the calibrated simulated LAN, exactly
// the paper's testbed shape.
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
#include "core/atomic_broadcast.h"
#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"
#include "sim/cluster.h"

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

enum class Proto { kEB, kRB, kBC, kMVC, kVC, kAB };

inline const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kEB: return "Echo Broadcast";
    case Proto::kRB: return "Reliable Broadcast";
    case Proto::kBC: return "Binary Consensus";
    case Proto::kMVC: return "Multi-valued Consensus";
    case Proto::kVC: return "Vector Consensus";
    case Proto::kAB: return "Atomic Broadcast";
  }
  return "?";
}

/// Table 1 workload: N isolated executions of one protocol; broadcast
/// sender = lowest id; consensus proposals identical; payload 10 bytes
/// (1 byte for binary consensus). Returns mean latency in microseconds
/// measured at process 0, signal -> deliver/decide.
inline double isolated_latency_us(Proto proto, bool ipsec, int iterations,
                                  std::uint64_t seed,
                                  StackConfig stack_cfg = {}) {
  ClusterOptions o;
  o.n = 4;
  o.seed = seed;
  o.lan = paper_lan(ipsec);
  o.stack = stack_cfg;
  Cluster c(o);
  Sample lat;
  const Bytes payload(10, 0x61);

  for (int it = 0; it < iterations; ++it) {
    const std::uint64_t seq = static_cast<std::uint64_t>(it) + 1;
    const Time t0 = c.now();
    bool done = false;

    switch (proto) {
      case Proto::kEB: {
        const InstanceId id = InstanceId::root(ProtocolType::kEchoBroadcast, seq);
        std::vector<EchoBroadcast*> inst(4, nullptr);
        for (ProcessId p : c.live()) {
          EchoBroadcast::DeliverFn cb;
          if (p == 0) cb = [&done](Slice) { done = true; };
          inst[p] = &c.create_root<EchoBroadcast>(p, id, 0, Attribution::kPayload,
                                                  std::move(cb));
        }
        c.call(0, [&] { inst[0]->bcast(Bytes(payload)); });
        break;
      }
      case Proto::kRB: {
        const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast, seq);
        std::vector<RbAlgorithm*> inst(4, nullptr);
        for (ProcessId p : c.live()) {
          RbAlgorithm::DeliverFn cb;
          if (p == 0) cb = [&done](Slice) { done = true; };
          inst[p] = &c.create_rb(p, id, 0, Attribution::kPayload,
                                                      std::move(cb));
        }
        c.call(0, [&] { inst[0]->bcast(Bytes(payload)); });
        break;
      }
      case Proto::kBC: {
        const InstanceId id = InstanceId::root(ProtocolType::kBinaryConsensus, seq);
        std::vector<BcAlgorithm*> inst(4, nullptr);
        for (ProcessId p : c.live()) {
          BcAlgorithm::DecideFn cb;
          if (p == 0) cb = [&done](bool) { done = true; };
          inst[p] = &c.create_bc(p, id, Attribution::kAgreement,
                                                    std::move(cb));
        }
        for (ProcessId p : c.live()) {
          c.call(p, [&, p] { inst[p]->propose(true); });
        }
        break;
      }
      case Proto::kMVC: {
        const InstanceId id =
            InstanceId::root(ProtocolType::kMultiValuedConsensus, seq);
        std::vector<MultiValuedConsensus*> inst(4, nullptr);
        for (ProcessId p : c.live()) {
          MultiValuedConsensus::DecideFn cb;
          if (p == 0) cb = [&done](std::optional<Bytes>) { done = true; };
          inst[p] = &c.create_root<MultiValuedConsensus>(p, id, Attribution::kAgreement,
                                                         std::move(cb));
        }
        for (ProcessId p : c.live()) {
          c.call(p, [&, p] { inst[p]->propose(payload); });
        }
        break;
      }
      case Proto::kVC: {
        const InstanceId id = InstanceId::root(ProtocolType::kVectorConsensus, seq);
        std::vector<VectorConsensus*> inst(4, nullptr);
        for (ProcessId p : c.live()) {
          VectorConsensus::DecideFn cb;
          if (p == 0) cb = [&done](VectorConsensus::Vector) { done = true; };
          inst[p] = &c.create_root<VectorConsensus>(p, id, Attribution::kAgreement,
                                                    std::move(cb));
        }
        for (ProcessId p : c.live()) {
          c.call(p, [&, p] { inst[p]->propose(payload); });
        }
        break;
      }
      case Proto::kAB: {
        const InstanceId id = InstanceId::root(ProtocolType::kAtomicBroadcast, seq);
        std::vector<AtomicBroadcast*> inst(4, nullptr);
        for (ProcessId p : c.live()) {
          AtomicBroadcast::DeliverFn cb;
          if (p == 0) cb = [&done](ProcessId, std::uint64_t, Slice) { done = true; };
          inst[p] = &c.create_root<AtomicBroadcast>(p, id, std::move(cb));
        }
        c.call(0, [&] { inst[0]->bcast(Bytes(payload)); });
        break;
      }
    }

    c.run_until([&] { return done; }, c.now() + kDeadline);
    lat.add(static_cast<double>(c.now() - t0) / 1e3);  // us
    c.run_all();  // quiesce before tearing the instances down
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

struct BurstResult {
  std::uint32_t burst = 0;          // messages actually sent
  double latency_ms = 0;            // signal -> k-th delivery at p0
  double throughput_msgs_s = 0;     // burst / latency
  double agreement_ratio = 0;       // agreement bcasts / all bcasts (Fig 7)
  std::uint64_t ab_rounds = 0;      // agreement rounds at p0
  bool bc_always_one_round = true;  // §4.3 claim
  bool mvc_never_default = true;    // §4.3 claim
};

/// Figures 4-6 workload: every (live, counted) sender transmits burst/S
/// messages of msg_bytes; latency is measured at p0 from the signal to the
/// delivery of the last message.
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

  std::vector<AtomicBroadcast*> ab(4, nullptr);
  std::vector<std::uint64_t> delivered(4, 0);
  const InstanceId id = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  for (ProcessId p : c.live()) {
    ab[p] = &c.create_root<AtomicBroadcast>(
        p, id, [&delivered, p](ProcessId, std::uint64_t, Slice) { ++delivered[p]; });
  }

  const auto senders = c.live();  // Byzantine processes still send (paper)
  const std::uint32_t per = burst / static_cast<std::uint32_t>(senders.size());
  const std::uint32_t total = per * static_cast<std::uint32_t>(senders.size());
  const Bytes payload(msg_bytes, 0x62);

  const Time t0 = c.now();
  for (ProcessId p : senders) {
    c.call(p, [&, p] {
      for (std::uint32_t i = 0; i < per; ++i) ab[p]->bcast(Bytes(payload));
    });
  }
  c.run_until([&] { return delivered[0] >= total; }, t0 + kDeadline);

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
  return r;
}

/// Averages `runs` seeded executions of run_burst.
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
