// ritas_explore — deterministic schedule exploration from the command line.
//
// Explore mode runs a seeded trial matrix against one protocol workload,
// checks every trial with the per-layer property oracles, and on the first
// failure shrinks the schedule and writes a replayable artifact:
//
//   $ ritas_explore --workload bc --seeds 1:200
//   $ ritas_explore --workload bc --seeds 1:200 --weak-bc-quorum --out-dir .
//   ... violation found: wrote schedule_137.json (exit code 2)
//
// Replay mode re-executes a saved artifact and verifies the failure
// reproduces bit-identically (same observation-stream fingerprint):
//
//   $ ritas_explore --replay schedule_137.json
//
// Exit codes: 0 = clean sweep / faithful replay, 1 = usage or I/O error,
// 2 = violation found (explore), 3 = replay did not reproduce.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/json.h"
#include "sim/explore.h"
#include "sim/wan_model.h"

using namespace ritas;
using sim::Explorer;
using sim::Finding;
using sim::Schedule;
using sim::TrialResult;
using sim::Workload;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload rb|eb|bc|mvc|vc|ab] [--n N] [--seeds FIRST[:COUNT]]\n"
      "          [--messages M] [--max-events E] [--coin local|dealt]\n"
      "          [--rb-variant bracha|imbs-raynal] [--bc-variant bracha|crain]\n"
      "          [--weak-bc-quorum] [--stall-is-violation] [--out-dir DIR]\n"
      "          [--wan] [--wan-sites S] [--wan-jitter-permille J]\n"
      "          [--wan-loss-ppm L] [--json]\n"
      "       %s --replay schedule_<seed>.json\n",
      argv0, argv0);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The artifact wrapper: the schedule plus what it produced, so a replay
/// can verify faithfulness without re-deriving anything.
std::string artifact_json(const Finding& f) {
  JsonWriter w;
  w.begin_object();
  w.field("version", std::uint64_t{1});
  w.field("tool", "ritas_explore");
  w.field("trial_seed", f.trial_seed);
  w.field("from_stall", f.from_stall);
  w.field("original_size", static_cast<std::uint64_t>(f.schedule.size()));
  w.field("minimized_size", static_cast<std::uint64_t>(f.minimized.size()));
  w.field("shrink_trials", static_cast<std::uint64_t>(f.shrink_trials));
  w.field("events", f.result.events);
  w.field("end_time_ns", f.result.end_time);
  w.field("fingerprint", f.result.fingerprint);
  w.key("violations").begin_array();
  for (const std::string& v : f.result.violations) w.value(v);
  w.end_array();
  // from_json descends into this member, so the whole artifact replays.
  w.key("schedule");
  // Schedule::to_json returns a complete object; splice it verbatim.
  std::string sched = f.minimized.to_json();
  std::string head = w.take();
  return head + sched + "}";
}

int replay(const std::string& path) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "ritas_explore: cannot read %s\n", path.c_str());
    return 1;
  }
  const auto sched = Schedule::from_json(*text);
  if (!sched) {
    std::fprintf(stderr, "ritas_explore: %s is not a valid schedule artifact\n",
                 path.c_str());
    return 1;
  }
  const auto doc = json_parse(*text);
  std::optional<std::uint64_t> recorded_fp;
  std::optional<bool> from_stall;
  if (doc.has_value()) {
    recorded_fp = doc->u64_at("fingerprint");
    from_stall = doc->bool_at("from_stall");
  }

  const TrialResult r = Explorer::run_trial(*sched);
  std::printf("replay %s: seed=%llu workload=%s n=%u\n", path.c_str(),
              static_cast<unsigned long long>(sched->seed),
              sim::workload_name(sched->workload), sched->n);
  std::printf("  events=%llu end_time=%llu ns fingerprint=%llu\n",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.end_time),
              static_cast<unsigned long long>(r.fingerprint));
  for (const std::string& v : r.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
  if (r.stalled) std::printf("  stalled (liveness budget exhausted)\n");

  if (recorded_fp && *recorded_fp != r.fingerprint) {
    std::printf("  MISMATCH: artifact recorded fingerprint %llu\n",
                static_cast<unsigned long long>(*recorded_fp));
    return 3;
  }
  const bool want_stall = from_stall.value_or(false);
  const bool reproduced = want_stall ? r.stalled : !r.violations.empty();
  if (!reproduced) {
    std::printf("  NOT REPRODUCED: replay ran clean\n");
    return 3;
  }
  std::printf("  reproduced%s\n", recorded_fp ? " (fingerprint matches)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Explorer::Config cfg;
  std::uint64_t first_seed = 1;
  std::uint64_t seed_count = 100;
  std::string out_dir = ".";
  std::string replay_path;
  bool json_out = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const auto w = sim::workload_from_name(next());
      if (!w) {
        usage(argv[0]);
        return 1;
      }
      cfg.workload = *w;
    } else if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (cfg.n < 1 || cfg.n > 32) {
        std::fprintf(stderr, "ritas_explore: --n must be in [1, 32]\n");
        return 1;
      }
    } else if (arg == "--seeds") {
      const char* spec = next();
      char* colon = nullptr;
      first_seed = std::strtoull(spec, &colon, 10);
      seed_count = (colon != nullptr && *colon == ':')
                       ? std::strtoull(colon + 1, nullptr, 10)
                       : 1;
      if (seed_count == 0) seed_count = 1;
    } else if (arg == "--messages") {
      cfg.messages = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (cfg.messages == 0) cfg.messages = 1;
    } else if (arg == "--max-events") {
      cfg.max_events = std::strtoull(next(), nullptr, 10);
      if (cfg.max_events == 0) cfg.max_events = 1;
    } else if (arg == "--coin") {
      const std::string c = next();
      if (c == "local") {
        cfg.coin_mode = CoinMode::kLocal;
      } else if (c == "dealt") {
        cfg.coin_mode = CoinMode::kDealt;
      } else {
        usage(argv[0]);
        return 1;
      }
    } else if (arg == "--rb-variant") {
      const auto v = ritas::rb_variant_from_name(next());
      if (!v) {
        std::fprintf(stderr, "ritas_explore: --rb-variant bracha|imbs-raynal\n");
        return 1;
      }
      cfg.variants.rb = *v;
    } else if (arg == "--bc-variant") {
      const auto v = ritas::bc_variant_from_name(next());
      if (!v) {
        std::fprintf(stderr, "ritas_explore: --bc-variant bracha|crain\n");
        return 1;
      }
      cfg.variants.bc = *v;
    } else if (arg == "--wan") {
      cfg.wan.enabled = true;
    } else if (arg == "--wan-sites") {
      cfg.wan.enabled = true;
      cfg.wan.sites = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (cfg.wan.sites < 1 || cfg.wan.sites > sim::kCanonicalSites) {
        std::fprintf(stderr, "ritas_explore: --wan-sites must be in [1, %u]\n",
                     sim::kCanonicalSites);
        return 1;
      }
    } else if (arg == "--wan-jitter-permille") {
      cfg.wan.enabled = true;
      cfg.wan.jitter_permille =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (cfg.wan.jitter_permille > 1000) {
        std::fprintf(stderr,
                     "ritas_explore: --wan-jitter-permille must be <= 1000\n");
        return 1;
      }
    } else if (arg == "--wan-loss-ppm") {
      cfg.wan.enabled = true;
      cfg.wan.loss_ppm =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (cfg.wan.loss_ppm >= 1'000'000) {
        std::fprintf(stderr,
                     "ritas_explore: --wan-loss-ppm must be < 1000000\n");
        return 1;
      }
    } else if (arg == "--weak-bc-quorum") {
      cfg.weak_bc_quorum = true;
    } else if (arg == "--stall-is-violation") {
      cfg.stall_is_violation = true;
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 1;
    }
  }

  if (!replay_path.empty()) return replay(replay_path);

  try {
    // Surface incompatible variant selections (e.g. imbs-raynal below
    // n = 6) here, not as a crash inside the first trial.
    ritas::validate_variants(cfg.variants, cfg.n);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ritas_explore: %s\n", e.what());
    return 1;
  }

  Explorer explorer(cfg);
  const auto finding = explorer.explore(first_seed, seed_count);
  const Metrics& m = explorer.metrics();

  if (json_out) {
    JsonWriter w;
    w.begin_object();
    w.field("workload", sim::workload_name(cfg.workload));
    w.field("n", static_cast<std::uint64_t>(cfg.n));
    w.field("first_seed", first_seed);
    w.field("seed_count", seed_count);
    w.field("explore_trials", m.explore_trials);
    w.field("explore_violations", m.explore_violations);
    w.field("explore_stalls", m.explore_stalls);
    w.field("found", finding.has_value());
    if (finding) w.field("trial_seed", finding->trial_seed);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf(
        "explored %llu trials (workload=%s n=%u messages=%u): "
        "%llu violations, %llu stalls\n",
        static_cast<unsigned long long>(m.explore_trials),
        sim::workload_name(cfg.workload), cfg.n, cfg.messages,
        static_cast<unsigned long long>(m.explore_violations),
        static_cast<unsigned long long>(m.explore_stalls));
  }

  if (!finding) return 0;

  const std::string name = sim::schedule_filename(finding->trial_seed);
  const std::string path = out_dir + "/" + name;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "ritas_explore: cannot write %s\n", path.c_str());
      return 1;
    }
    out << artifact_json(*finding) << "\n";
  }
  std::printf("violation at seed %llu (%s): schedule size %zu -> %zu after %u "
              "shrink trials\n",
              static_cast<unsigned long long>(finding->trial_seed),
              finding->from_stall ? "liveness" : "safety",
              finding->schedule.size(), finding->minimized.size(),
              finding->shrink_trials);
  for (const std::string& v : finding->result.violations) {
    std::printf("  %s\n", v.c_str());
  }
  std::printf("wrote %s (replay with --replay)\n", path.c_str());
  return 2;
}
