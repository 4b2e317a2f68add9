// Figure 2 of the paper is the message-exchange diagram ("overview of the
// messages exchanged in each protocol"). This bench derives it from the
// running system: for one isolated execution of each protocol at n = 4 it
// reports the wire frames, wire bytes and broadcast instances actually
// exchanged, next to the analytic counts the diagram implies.
//
// Analytic counts (n = 4, remote frames only — self-deliveries never touch
// the wire):
//   reliable broadcast: INIT 3 + ECHO 4*3 + READY 4*3            = 27
//   echo broadcast:     INIT 3 + VECT 3 + MAT 3                  = 9
//   binary consensus:   (3 steps * 4 origins) RB per round; one
//                       deciding round + one courtesy round       = 2*12*27 = 648
//   multi-valued:       4 INIT RB + 4 VECT EB + BC                = 4*27+4*9+648 = 792
//   vector consensus:   4 proposal RB + MVC                       = 108+792 = 900
//   atomic broadcast:   1 AB_MSG RB + 4 AB_VECT RB + MVC          = 27+108+792 = 927
//
// Every run executes with tracing enabled and is judged by the shared
// property oracles; the frame counts are cross-checked against the
// trace-derived send count, the atomic-broadcast trace is written out as
// Chrome trace_event JSON (trace_fig2.json, load in chrome://tracing or
// Perfetto), and BENCH_fig2.json captures the table.
#include <cstdio>

#include "paper_harness.h"

namespace {

using namespace ritas;
using namespace ritas::bench;

struct Census {
  std::uint64_t frames;
  std::uint64_t wire_bytes;
  std::uint64_t broadcasts;    // RB/EB instances started
  std::uint64_t trace_events;  // total events across all 4 tracers
  std::uint64_t trace_sends;   // kSend events (should equal `frames`)
  std::string chrome_json;     // Chrome trace of the whole run
};

/// One isolated execution of `layer` (Table 1's, root 1, seed 3) with
/// tracing on, counted once the run has quiesced.
Census census_of(sim::Workload layer, sim::oracle::Report& oracles) {
  ClusterOptions o;
  o.n = 4;
  o.seed = 3;
  o.lan = paper_lan(true);
  o.trace = true;
  Cluster c(o);
  isolated_run(c, layer, 1, oracles);

  Census out;
  const Metrics m = c.total_metrics();
  out.frames = m.msgs_sent;
  out.wire_bytes = c.network().wire_bytes_total();
  out.broadcasts = m.broadcasts_total();
  const TraceSummary ts = summarize(c.tracers());
  out.trace_events = ts.events;
  out.trace_sends = ts.sends;
  out.chrome_json = c.chrome_trace_json();
  return out;
}

bool write_file(const char* path, const std::string& body) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main() {
  using namespace ritas::bench;
  print_header(
      "Figure 2 (derived): messages actually exchanged per protocol\n"
      "(n=4, one isolated execution incl. consensus courtesy rounds)");

  using ritas::sim::Workload;
  struct Row {
    Workload layer;
    const char* title;
    std::uint64_t analytic_frames;
  };
  const Row rows[] = {
      {Workload::kEchoBroadcast, "Echo Broadcast", 9},
      {Workload::kReliableBroadcast, "Reliable Broadcast", 27},
      {Workload::kBinaryConsensus, "Binary Consensus", 648},
      {Workload::kMultiValuedConsensus, "Multi-valued Consensus", 792},
      {Workload::kVectorConsensus, "Vector Consensus", 900},
      {Workload::kAtomicBroadcast, "Atomic Broadcast", 927},
  };

  BenchReport report("fig2");
  report.config("seed", std::uint64_t{3});
  report.config("n", 4);

  std::printf("%-24s %10s %10s %12s %12s %12s\n", "protocol", "analytic",
              "frames", "wire bytes", "broadcasts", "trace evts");
  bool all_match = true;
  bool trace_sends_match = true;
  std::string ab_chrome;
  ritas::sim::oracle::Report oracles;
  for (const Row& r : rows) {
    Census cs = census_of(r.layer, oracles);
    const std::string key = ritas::sim::workload_name(r.layer);
    const bool match = report.gate(key + "_frames_eq_analytic", cs.frames,
                                   "==", r.analytic_frames);
    all_match = all_match && match;
    trace_sends_match &= report.gate(key + "_trace_sends_eq_frames",
                                     cs.trace_sends, "==", cs.frames);
    if (r.layer == Workload::kAtomicBroadcast) {
      ab_chrome = std::move(cs.chrome_json);
    }
    std::printf("%-24s %10llu %10llu %12llu %12llu %12llu  %s\n",
                r.title,
                static_cast<unsigned long long>(r.analytic_frames),
                static_cast<unsigned long long>(cs.frames),
                static_cast<unsigned long long>(cs.wire_bytes),
                static_cast<unsigned long long>(cs.broadcasts),
                static_cast<unsigned long long>(cs.trace_events),
                match ? "" : "<- differs");
    report.add_row([&](ritas::JsonWriter& w) {
      w.field("protocol", key);
      w.field("analytic_frames", r.analytic_frames);
      w.field("frames", cs.frames);
      w.field("wire_bytes", cs.wire_bytes);
      w.field("broadcasts", cs.broadcasts);
      w.field("trace_events", cs.trace_events);
      w.field("trace_sends", cs.trace_sends);
    });
  }
  std::printf("\nshape check:\n");
  std::printf("  measured frame counts match the Figure-2 analysis : %s\n",
              all_match ? "PASS" : "FAIL");
  std::printf("  trace-derived send counts match stack metrics     : %s\n",
              trace_sends_match ? "PASS" : "FAIL");
  std::printf("  every run passed the property oracles             : %s\n",
              report.oracles(oracles) ? "PASS" : "FAIL");

  const bool wrote_trace = write_file("trace_fig2.json", ab_chrome);
  const auto trace = ritas::json_parse(ab_chrome);
  const ritas::JsonValue* events = trace ? trace->get("traceEvents") : nullptr;
  report.gate("trace_fig2_events", events ? events->array.size() : 0, ">", 0);
  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(),
              wrote ? "PASS" : "FAIL");
  std::printf("  wrote trace_fig2.json (atomic broadcast, Chrome trace) : %s\n",
              wrote_trace ? "PASS" : "FAIL");
  return wrote && wrote_trace ? report.exit_code() : 1;
}
