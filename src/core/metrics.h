// Per-process counters for traffic accounting and the paper's evaluation.
//
// Figure 7 of the paper divides "broadcasts needed for agreement" by "all
// (reliable and echo) broadcasts"; Table 1 and §4.3 report round counts.
// The stack increments these counters as it runs; harnesses aggregate them
// across processes.
#pragma once

#include <array>
#include <cstdint>

#include "common/stats.h"
#include "common/trace.h"
#include "core/instance_id.h"
#include "core/types.h"

namespace ritas {

// The counter list: one X(field, unit, help) row per counter. The fields,
// operator+= and for_each() are generated from it, and the "Metrics
// counters" table in docs/OBSERVABILITY.md lists the same names and units
// (test_counter_docs checks). Add a counter here and nowhere else.
//
// Groups, in order: transport traffic (self-deliveries excluded);
// defensive drops (a frame for a group this stack does not run means a
// Byzantine or misconfigured peer; a GroupMux forwards such frames here);
// the out-of-context table (§3.4); broadcast instances
// this process initiated as sender, by attribution (Figure 7); consensus
// behaviour (§4.3: "binary consensus always terminated within one round",
// "multi-valued consensus always decided a non-default value"); atomic
// broadcast rounds and batching (StackConfig::ab_batch); the zero-copy
// buffer layer (common/buffer.h: a broadcast encodes once and shares the
// frame across all n-1 sends, and received payloads alias their arrival
// frame); and the schedule explorer
// (src/sim/explore.h), kept by the Explorer rather than by stacks.
#define RITAS_METRICS_COUNTERS(X)                                             \
  X(msgs_sent, "frames",                                                      \
    "frames handed to the transport, one per destination")                    \
  X(bytes_sent, "bytes", "bytes of those frames")                             \
  X(msgs_received, "frames", "frames decoded for this stack's group")         \
  X(malformed_dropped, "frames", "undecodable frames")                        \
  X(unroutable_dropped, "messages",                                           \
    "messages for a refused or tombstoned instance")                          \
  X(invalid_dropped, "messages", "protocol-level validation failures")        \
  X(foreign_group_dropped, "frames", "well-formed frames for another group")  \
  X(ooc_stored, "messages", "messages parked out of context")                 \
  X(ooc_drained, "messages",                                                  \
    "parked messages replayed once their instance existed")                   \
  X(ooc_evicted, "messages",                                                  \
    "parked messages evicted by the per-sender quota")                        \
  X(rb_started_payload, "instances",                                          \
    "reliable broadcasts started to disseminate payload")                     \
  X(rb_started_agreement, "instances",                                        \
    "reliable broadcasts started by agreement protocols")                     \
  X(eb_started_payload, "instances",                                          \
    "echo broadcasts started to disseminate payload")                         \
  X(eb_started_agreement, "instances",                                        \
    "echo broadcasts started by agreement protocols")                         \
  X(bc_decided, "instances", "binary consensus decisions")                    \
  X(bc_rounds_total, "rounds", "rounds summed over decided binary consensus") \
  X(bc_coin_flips, "flips", "coin flips taken by binary consensus")           \
  X(mvc_decided_value, "instances",                                           \
    "multi-valued consensus decisions on a proposed value")                   \
  X(mvc_decided_default, "instances",                                         \
    "multi-valued consensus decisions on the default value")                  \
  X(ab_rounds, "rounds", "atomic broadcast agreement rounds started")         \
  X(ab_delivered, "messages", "atomic broadcast messages delivered")          \
  X(ab_batches_sealed, "batches",                                             \
    "atomic broadcast batches sealed by this sender")                         \
  X(ab_batch_msgs, "messages", "messages carried by those batches")           \
  X(ab_batch_malformed, "frames",                                             \
    "delivered batch frames that failed to decode (also invalid_dropped)")    \
  X(frames_encoded, "frames", "Message::encode calls on the send path")       \
  X(payload_bytes_aliased, "bytes",                                           \
    "payload bytes handed to protocols as slices of the arrival frame")       \
  X(explore_trials, "trials", "schedules the explorer executed")              \
  X(explore_violations, "trials",                                             \
    "trials whose oracles flagged a safety violation")                        \
  X(explore_stalls, "trials", "trials that exhausted the liveness budget")

struct Metrics {
#define RITAS_METRICS_FIELD(field, unit, help) std::uint64_t field = 0;
  RITAS_METRICS_COUNTERS(RITAS_METRICS_FIELD)
#undef RITAS_METRICS_FIELD

  // Per-protocol spawn->terminal latency, indexed by ProtocolType code
  // (1..6; slot 0 unused). Timestamps come from Transport::now_ns(), so in
  // the sim these are virtual nanoseconds and on clock-less test loopbacks
  // every observation is 0 — the counts still track completions.
  std::array<Histogram, kTraceProtoSlots> proto_latency_ns{};
  // Rounds needed per decided binary consensus (paper §4.3 reports the
  // distribution is concentrated at 1).
  Histogram bc_round_hist;

  void count_broadcast_start(ProtocolType type, Attribution attr) {
    if (type == ProtocolType::kReliableBroadcast) {
      (attr == Attribution::kPayload ? rb_started_payload : rb_started_agreement)++;
    } else if (type == ProtocolType::kEchoBroadcast) {
      (attr == Attribution::kPayload ? eb_started_payload : eb_started_agreement)++;
    }
  }

  std::uint64_t broadcasts_total() const {
    return rb_started_payload + rb_started_agreement + eb_started_payload +
           eb_started_agreement;
  }
  std::uint64_t broadcasts_agreement() const {
    return rb_started_agreement + eb_started_agreement;
  }

  Metrics& operator+=(const Metrics& o) {
#define RITAS_METRICS_ADD(field, unit, help) field += o.field;
    RITAS_METRICS_COUNTERS(RITAS_METRICS_ADD)
#undef RITAS_METRICS_ADD
    for (std::size_t i = 0; i < proto_latency_ns.size(); ++i) {
      proto_latency_ns[i] += o.proto_latency_ns[i];
    }
    bc_round_hist += o.bc_round_hist;
    return *this;
  }

  /// Calls f(CounterInfo, value) once per counter, in list order (the
  /// histograms are not counters and are skipped).
  template <typename F>
  void for_each(F&& f) const {
#define RITAS_METRICS_VISIT(field, unit, help) \
  f(CounterInfo{#field, unit, help}, field);
    RITAS_METRICS_COUNTERS(RITAS_METRICS_VISIT)
#undef RITAS_METRICS_VISIT
  }
};

}  // namespace ritas
