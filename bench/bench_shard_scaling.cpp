// Shard scaling: aggregate committed ops/s of the sharded SMR service as
// the number of consensus groups G grows over one shared mesh.
//
// Weak-scaling workload: every shard gets the SAME fixed load (keyed SET
// commands whose keys hash to that shard), submitted through rotating
// process fronts, and the run ends when every correct process has applied
// the full load of every shard. The paper's LAN is latency-bound at small
// payloads, so G groups pipeline their (independent) agreement rounds
// over the shared links and aggregate throughput grows with G until the
// per-host CPU/NIC timelines saturate — exactly the contention the shared
// SimNetwork models.
//
// Gate (exit 1 on failure, recorded in BENCH_shard_scaling.json and
// re-evaluated by tools/check_bench_regression.py): G=4 must commit at
// least 2x the aggregate ops/s of G=1.
#include <cstdio>
#include <string>
#include <vector>

#include "paper_harness.h"
#include "sim/sharded.h"
#include "smr/kv_machine.h"

namespace ritas::bench {
namespace {

using sim::ClusterOptions;
using sim::ShardedCluster;
using smr::KvCommand;
using smr::shard_of_key;

constexpr std::uint32_t kPerShardOps = 48;  // fixed per-shard load
constexpr double kMinSpeedupG4 = 2.0;       // the CI-gated floor

Bytes set_cmd(const std::string& key, const std::string& value) {
  KvCommand c;
  c.op = KvCommand::Op::kSet;
  c.key = key;
  c.value = value;
  return c.encode();
}

/// kPerShardOps keys per shard: scan "k<i>" until every shard is full.
std::vector<std::vector<std::string>> keys_per_shard(std::uint32_t groups) {
  std::vector<std::vector<std::string>> keys(groups);
  std::uint32_t filled = 0;
  for (std::uint64_t i = 0; filled < groups; ++i) {
    const std::string k = "k" + std::to_string(i);
    const auto s = shard_of_key(
        ByteView(reinterpret_cast<const std::uint8_t*>(k.data()), k.size()),
        groups);
    if (keys[s].size() >= kPerShardOps) continue;
    keys[s].push_back(k);
    if (keys[s].size() == kPerShardOps) ++filled;
  }
  return keys;
}

struct ScalingResult {
  double elapsed_ms = 0;
  double agg_ops_s = 0;
  std::uint64_t foreign_drops = 0;
};

ScalingResult run_once(std::uint32_t groups, std::uint64_t seed) {
  ClusterOptions o;
  o.n = 4;
  o.groups = groups;
  o.seed = seed;
  // Latency-bound profile, NOT paper_lan(true): sharding scales by
  // pipelining independent agreement rounds over the network round trip,
  // so the bench keeps the calibrated switch latency but prices protocol
  // CPU at modern-commodity cost (the calibrated 28us/msg is a 500 MHz
  // Pentium III with kernel IPsec — under it the shared hosts are
  // CPU-saturated at G=1 already and aggregate throughput is flat, a true
  // but different observation). Gigabit-class NIC for the same reason.
  o.lan.ipsec = false;
  o.lan.bytes_per_sec = 110e6;
  o.lan.cpu_send_ns = 2'000;
  o.lan.cpu_recv_ns = 2'000;
  o.lan.cpu_per_byte_ns = 1.0;
  o.lan.jitter_ns = 40'000;
  // Every group runs the same tuned batching config, so the G sweep
  // compares like with like.
  o.stack.ab_batch.enabled = true;
  o.stack.ab_batch.max_batch_msgs = 16;
  o.stack.ab_batch.max_batch_bytes = 8 * 1024;
  ShardedCluster c(o);

  const auto keys = keys_per_shard(groups);
  const std::uint64_t total =
      static_cast<std::uint64_t>(groups) * kPerShardOps;

  const sim::Time t0 = c.now();
  std::uint64_t seq = 0;
  for (std::uint32_t i = 0; i < kPerShardOps; ++i) {
    for (std::uint32_t g = 0; g < groups; ++g) {
      // Rotate fronts so every process originates load.
      c.submit(static_cast<ProcessId>(seq % 4), /*client=*/1, seq,
               set_cmd(keys[g][i], "v"));
      ++seq;
    }
  }
  c.flush_all();
  const bool done = c.run_until(
      [&] { return c.all_applied_at_least(total); }, t0 + kDeadline);

  ScalingResult r;
  r.elapsed_ms = static_cast<double>(c.now() - t0) / 1e6;
  r.agg_ops_s = (done && r.elapsed_ms > 0)
                    ? static_cast<double>(total) / (r.elapsed_ms / 1e3)
                    : 0;
  // Includes the frames a GroupMux could not route: those reach the lowest
  // group's stack, which counts them.
  const Metrics m = c.total_metrics();
  r.foreign_drops = m.foreign_group_dropped;
  return r;
}

ScalingResult run_avg(std::uint32_t groups, int runs) {
  ScalingResult acc;
  for (int i = 0; i < runs; ++i) {
    const ScalingResult r =
        run_once(groups, 1000 + static_cast<std::uint64_t>(i));
    acc.elapsed_ms += r.elapsed_ms / runs;
    acc.agg_ops_s += r.agg_ops_s / runs;
    acc.foreign_drops += r.foreign_drops;
  }
  return acc;
}

}  // namespace
}  // namespace ritas::bench

int main() {
  using namespace ritas::bench;
  const std::vector<std::uint32_t> sweep = {1, 2, 4, 8};
  const int kRuns = bench_runs(3);

  print_header(
      "Shard scaling: G independent RITAS groups over one shared mesh "
      "(n=4, weak scaling)");

  BenchReport report("shard_scaling");
  report.config("n", 4);
  report.config("runs", kRuns);
  report.config("first_seed", 1000);
  report.config("per_shard_ops", static_cast<std::uint64_t>(kPerShardOps));
  // Every figure is virtual time or a count: exact against the baseline.
  report.compare(
      R"({"key":["groups"],"fields":{)"
      R"("elapsed_ms":{"exact":true},"agg_ops_s":{"exact":true},)"
      R"("speedup_vs_g1":{"exact":true},"foreign_drops":{"exact":true}}})");

  std::printf("%-8s %10s %12s %14s %10s\n", "groups", "total ops",
              "elapsed(ms)", "agg ops/s", "speedup");
  double base = 0;
  double g4_speedup = 0;
  bool clean_mesh = true;
  for (std::uint32_t g : sweep) {
    const ScalingResult r = run_avg(g, kRuns);
    if (g == 1) base = r.agg_ops_s;
    const double speedup = base > 0 ? r.agg_ops_s / base : 0;
    if (g == 4) g4_speedup = speedup;
    const std::string cell = "g" + std::to_string(g);
    clean_mesh &=
        report.gate(cell + "_foreign_drops", r.foreign_drops, "==", 0);
    std::printf("%-8u %10llu %12.1f %14.0f %9.2fx\n", g,
                static_cast<unsigned long long>(g * kPerShardOps),
                r.elapsed_ms, r.agg_ops_s, speedup);
    std::fflush(stdout);
    report.add_row([&](ritas::JsonWriter& w) {
      w.field("groups", g);
      w.field("total_ops", static_cast<std::uint64_t>(g) * kPerShardOps);
      w.field("elapsed_ms", r.elapsed_ms);
      w.field("agg_ops_s", r.agg_ops_s);
      w.field("speedup_vs_g1", speedup);
      w.field("foreign_drops", r.foreign_drops);
    });
  }

  const bool gate = report.gate("speedup_g4", g4_speedup, ">=", kMinSpeedupG4);
  std::printf("\nshape checks:\n");
  std::printf("  G=4 aggregate >= %.1fx G=1                  : %s (%.2fx)\n",
              kMinSpeedupG4, gate ? "PASS" : "FAIL", g4_speedup);
  std::printf("  shared mesh clean (no foreign drops)       : %s\n",
              clean_mesh ? "PASS" : "FAIL");

  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(),
              wrote ? "PASS" : "FAIL");
  return wrote ? report.exit_code() : 1;
}
