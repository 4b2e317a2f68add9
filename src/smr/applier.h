// ExactlyOnceApplier — the replication-side half every SMR front shares.
//
// Commands arrive in total order from an atomic broadcast (one per group).
// Each carries a (client id, client sequence) pair; at-least-once clients
// retry and multi-submit, so the applier filters duplicates with a
// per-client floor+set window and applies survivors to the deterministic
// StateMachine. ShardedService keeps one applier per shard and delegates
// here.
//
// Wire format of a command: u64 client | u64 seq | bytes op.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "common/bytes.h"
#include "common/serialize.h"
#include "smr/state_machine.h"

namespace ritas::smr {

/// Per-client dedup window: a floor below which every sequence is known
/// applied, plus the sparse applied set above it.
struct ClientWindow {
  std::uint64_t floor = 0;        // all seqs below are applied
  std::set<std::uint64_t> above;  // applied seqs >= floor
  bool contains(std::uint64_t seq) const {
    return seq < floor || above.contains(seq);
  }
  void insert(std::uint64_t seq) {
    if (seq < floor) return;
    above.insert(seq);
    while (above.contains(floor)) {
      above.erase(floor);
      ++floor;
    }
  }
};

class ExactlyOnceApplier {
 public:
  /// `machine` must outlive the applier.
  explicit ExactlyOnceApplier(StateMachine& machine) : machine_(machine) {}

  ExactlyOnceApplier(const ExactlyOnceApplier&) = delete;
  ExactlyOnceApplier& operator=(const ExactlyOnceApplier&) = delete;

  /// The command framing submit paths put on the atomic broadcast.
  static Bytes encode_command(std::uint64_t client, std::uint64_t seq,
                              ByteView op) {
    Writer w(op.size() + 16);
    w.u64(client);
    w.u64(seq);
    w.raw(op);
    return std::move(w).take();
  }

  struct Applied {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    Bytes result;
  };

  /// Feeds one totally-ordered command. Returns the application result, or
  /// nullopt when the command was skipped: a duplicate (counted) or an
  /// unparsable header (counted — a Byzantine submitter's bytes are
  /// skipped identically at every correct replica, so state stays equal).
  std::optional<Applied> on_command(ByteView payload) {
    Reader r(payload);
    const std::uint64_t client = r.u64();
    const std::uint64_t seq = r.u64();
    const Bytes op = r.raw(r.remaining());
    if (!r.ok()) {
      ++malformed_skipped_;
      return std::nullopt;
    }
    ClientWindow& win = applied_[client];
    if (win.contains(seq)) {
      ++duplicates_skipped_;
      return std::nullopt;
    }
    win.insert(seq);
    Applied out{client, seq, machine_.apply(op)};
    ++applied_count_;
    return out;
  }

  const StateMachine& machine() const { return machine_; }
  std::uint64_t applied_count() const { return applied_count_; }
  std::uint64_t duplicates_skipped() const { return duplicates_skipped_; }
  std::uint64_t malformed_skipped() const { return malformed_skipped_; }

 private:
  StateMachine& machine_;
  std::map<std::uint64_t, ClientWindow> applied_;
  std::uint64_t applied_count_ = 0;
  std::uint64_t duplicates_skipped_ = 0;
  std::uint64_t malformed_skipped_ = 0;
};

}  // namespace ritas::smr
