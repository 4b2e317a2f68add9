#include "sim/load_gen.h"

#include <algorithm>
#include <cmath>

namespace ritas::sim {

LoadGen::LoadGen(Scheduler& sched, Options opts, SubmitFn submit)
    : sched_(sched),
      opts_(std::move(opts)),
      submit_(std::move(submit)),
      rng_(opts_.seed),
      origins_(opts_.origins) {
  if (origins_.empty()) origins_.push_back(0);
  ProcessId max_origin = 0;
  for (ProcessId o : origins_) max_origin = std::max(max_origin, o);
  pending_.resize(static_cast<std::size_t>(max_origin) + 1);
}

Time LoadGen::next_gap() {
  // Exponential inter-arrival with rate ops_per_sec: the merged arrival
  // process of many independent clients is Poisson. log1p(-u) with
  // u in [0,1) never hits log(0).
  const double u = rng_.uniform();
  const double secs = -std::log1p(-u) / opts_.ops_per_sec;
  return static_cast<Time>(secs * static_cast<double>(kSecond));
}

void LoadGen::start() {
  if (started_) return;
  started_ = true;
  sched_.after(next_gap(), [this] { arrive(); });
}

void LoadGen::arrive() {
  if (stopped_) return;
  ++offered_;
  const ProcessId origin =
      origins_.size() == 1
          ? origins_[0]
          : origins_[rng_.below(origins_.size())];
  pending_[origin].push_back(sched_.now());
  backlog_peak_ = std::max(backlog_peak_, backlog());

  // Payload carries (client, op-sequence) so every op is distinct and the
  // AB oracles compare real identities, not blank bytes.
  Bytes payload(std::max<std::uint32_t>(opts_.payload_bytes, 8), 0);
  const std::uint64_t client = opts_.clients ? rng_.below(opts_.clients) : 0;
  const std::uint64_t tag = (client << 32) | (offered_ & 0xffffffffull);
  for (int i = 0; i < 8; ++i) {
    payload[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(tag >> (8 * i));
  }
  submit_(origin, std::move(payload));

  if (opts_.max_ops != 0 && offered_ >= opts_.max_ops) {
    stopped_ = true;
    if (on_drained_) on_drained_();
    return;
  }
  sched_.after(next_gap(), [this] { arrive(); });
}

void LoadGen::on_completed(ProcessId origin) {
  if (origin >= pending_.size() || pending_[origin].empty()) return;
  const Time sent = pending_[origin].front();
  pending_[origin].pop_front();
  ++completed_;
  latency_.add(sched_.now() - sent);
}

}  // namespace ritas::sim
