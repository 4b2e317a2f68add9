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
// Every run executes with tracing enabled; the frame counts are
// cross-checked against the trace-derived send count, the atomic-broadcast
// trace is written out as Chrome trace_event JSON (trace_fig2.json, load in
// chrome://tracing or Perfetto), and BENCH_fig2.json captures the table.
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

Census census_of(Proto proto) {
  ClusterOptions o;
  o.n = 4;
  o.seed = 3;
  o.lan = paper_lan(true);
  o.trace = true;
  Cluster c(o);

  bool done = false;
  const InstanceId rb_id = InstanceId::root(ProtocolType::kReliableBroadcast, 1);
  const InstanceId eb_id = InstanceId::root(ProtocolType::kEchoBroadcast, 1);
  const InstanceId bc_id = InstanceId::root(ProtocolType::kBinaryConsensus, 1);
  const InstanceId mvc_id = InstanceId::root(ProtocolType::kMultiValuedConsensus, 1);
  const InstanceId vc_id = InstanceId::root(ProtocolType::kVectorConsensus, 1);
  const InstanceId ab_id = InstanceId::root(ProtocolType::kAtomicBroadcast, 1);
  const Bytes payload(10, 0x61);

  switch (proto) {
    case Proto::kRB: {
      std::vector<RbAlgorithm*> inst(4, nullptr);
      for (ProcessId p : c.live()) {
        RbAlgorithm::DeliverFn cb;
        if (p == 0) cb = [&done](Slice) { done = true; };
        inst[p] = &c.create_rb(p, rb_id, 0,
                                                    Attribution::kPayload,
                                                    std::move(cb));
      }
      c.call(0, [&] { inst[0]->bcast(Bytes(payload)); });
      break;
    }
    case Proto::kEB: {
      std::vector<EchoBroadcast*> inst(4, nullptr);
      for (ProcessId p : c.live()) {
        EchoBroadcast::DeliverFn cb;
        if (p == 0) cb = [&done](Slice) { done = true; };
        inst[p] = &c.create_root<EchoBroadcast>(p, eb_id, 0, Attribution::kPayload,
                                                std::move(cb));
      }
      c.call(0, [&] { inst[0]->bcast(Bytes(payload)); });
      break;
    }
    case Proto::kBC: {
      std::vector<BcAlgorithm*> inst(4, nullptr);
      for (ProcessId p : c.live()) {
        BcAlgorithm::DecideFn cb;
        if (p == 0) cb = [&done](bool) { done = true; };
        inst[p] = &c.create_bc(p, bc_id, Attribution::kAgreement,
                                                  std::move(cb));
      }
      for (ProcessId p : c.live()) {
        c.call(p, [&, p] { inst[p]->propose(true); });
      }
      break;
    }
    case Proto::kMVC: {
      std::vector<MultiValuedConsensus*> inst(4, nullptr);
      for (ProcessId p : c.live()) {
        MultiValuedConsensus::DecideFn cb;
        if (p == 0) cb = [&done](std::optional<Bytes>) { done = true; };
        inst[p] = &c.create_root<MultiValuedConsensus>(
            p, mvc_id, Attribution::kAgreement, std::move(cb));
      }
      for (ProcessId p : c.live()) {
        c.call(p, [&, p] { inst[p]->propose(payload); });
      }
      break;
    }
    case Proto::kVC: {
      std::vector<VectorConsensus*> inst(4, nullptr);
      for (ProcessId p : c.live()) {
        VectorConsensus::DecideFn cb;
        if (p == 0) cb = [&done](VectorConsensus::Vector) { done = true; };
        inst[p] = &c.create_root<VectorConsensus>(p, vc_id, Attribution::kAgreement,
                                                  std::move(cb));
      }
      for (ProcessId p : c.live()) {
        c.call(p, [&, p] { inst[p]->propose(payload); });
      }
      break;
    }
    case Proto::kAB: {
      std::vector<AtomicBroadcast*> inst(4, nullptr);
      for (ProcessId p : c.live()) {
        AtomicBroadcast::DeliverFn cb;
        if (p == 0) cb = [&done](ProcessId, std::uint64_t, Slice) { done = true; };
        inst[p] = &c.create_root<AtomicBroadcast>(p, ab_id, std::move(cb));
      }
      c.call(0, [&] { inst[0]->bcast(Bytes(payload)); });
      break;
    }
  }
  c.run_until([&] { return done; }, kDeadline);
  c.run_all();  // include courtesy rounds and stragglers

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

  struct Row {
    Proto proto;
    const char* key;
    std::uint64_t analytic_frames;
  };
  const Row rows[] = {
      {Proto::kEB, "eb", 9},   {Proto::kRB, "rb", 27},
      {Proto::kBC, "bc", 648}, {Proto::kMVC, "mvc", 792},
      {Proto::kVC, "vc", 900}, {Proto::kAB, "ab", 927},
  };

  BenchReport report("fig2");
  report.config("seed", std::uint64_t{3});
  report.config("n", 4);

  std::printf("%-24s %10s %10s %12s %12s %12s\n", "protocol", "analytic",
              "frames", "wire bytes", "broadcasts", "trace evts");
  bool all_match = true;
  bool trace_sends_match = true;
  std::string ab_chrome;
  for (const Row& r : rows) {
    Census cs = census_of(r.proto);
    const std::string key = r.key;
    const bool match = report.gate(key + "_frames_eq_analytic", cs.frames,
                                   "==", r.analytic_frames);
    all_match = all_match && match;
    trace_sends_match &= report.gate(key + "_trace_sends_eq_frames",
                                     cs.trace_sends, "==", cs.frames);
    if (r.proto == Proto::kAB) ab_chrome = std::move(cs.chrome_json);
    std::printf("%-24s %10llu %10llu %12llu %12llu %12llu  %s\n",
                proto_name(r.proto),
                static_cast<unsigned long long>(r.analytic_frames),
                static_cast<unsigned long long>(cs.frames),
                static_cast<unsigned long long>(cs.wire_bytes),
                static_cast<unsigned long long>(cs.broadcasts),
                static_cast<unsigned long long>(cs.trace_events),
                match ? "" : "<- differs");
    report.add_row([&](ritas::JsonWriter& w) {
      w.field("protocol", r.key);
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
