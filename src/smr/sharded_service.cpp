#include "smr/sharded_service.h"

#include <stdexcept>

namespace ritas::smr {

namespace {

// FNV-1a 64-bit then a splitmix64 finalizer. Chosen over std::hash because
// shard placement is part of the replicated protocol: every process (any
// platform, any standard library) must map a key to the same shard.
std::uint64_t stable_hash(ByteView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

ShardId shard_of_key(ByteView key, std::uint32_t shards) {
  if (shards == 0) throw std::invalid_argument("shard_of_key: zero shards");
  return static_cast<ShardId>(stable_hash(key) % shards);
}

ShardedService::ShardedService(Config cfg, const MachineFactory& factory)
    : cfg_(cfg) {
  if (cfg_.shards == 0) {
    throw std::invalid_argument("ShardedService: need at least one shard");
  }
  if (!factory) {
    throw std::invalid_argument("ShardedService: null machine factory");
  }
  machines_.reserve(cfg_.shards);
  appliers_.reserve(cfg_.shards);
  for (ShardId s = 0; s < cfg_.shards; ++s) {
    machines_.push_back(factory(s));
    appliers_.push_back(std::make_unique<ExactlyOnceApplier>(*machines_[s]));
  }
}

ShardId ShardedService::shard_of(ByteView op) const {
  if (cfg_.key_of) {
    if (auto key = cfg_.key_of(op)) {
      return shard_of_key(
          ByteView(reinterpret_cast<const std::uint8_t*>(key->data()),
                   key->size()),
          cfg_.shards);
    }
  }
  return shard_of_key(op, cfg_.shards);
}

ShardId ShardedService::submit(std::uint64_t client, std::uint64_t seq,
                               ByteView op) {
  const ShardId owner = shard_of(op);
  if (!submit_) throw std::logic_error("ShardedService: no submitter bound");
  submit_(owner, ExactlyOnceApplier::encode_command(client, seq, op));
  return owner;
}

void ShardedService::on_delivered(ShardId shard, ByteView command) {
  if (shard >= cfg_.shards) return;  // harness bug, not reachable from wire
  // Partition audit: a correct process only broadcasts a command on its
  // owning shard's group, so a delivered command whose key hashes
  // elsewhere came from a Byzantine replica. Every correct replica of the
  // shard sees the same slot and skips identically — a counted drop.
  if (command.size() >= 16) {
    const ByteView op = command.subspan(16);
    if (shard_of(op) != shard) {
      counters_.misrouted_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const auto applied = appliers_[shard]->on_command(command);
  if (applied && on_applied_) {
    on_applied_(shard, applied->client, applied->seq, applied->result);
  }
}

ShardedService::Stats ShardedService::stats() const {
  Stats s;
#define RITAS_SERVICE_LOAD(field, unit, help) \
  s.field = counters_.field.load(std::memory_order_relaxed);
  RITAS_SERVICE_COUNTERS(RITAS_SERVICE_LOAD)
#undef RITAS_SERVICE_LOAD
  return s;
}

std::uint64_t ShardedService::applied_total() const {
  std::uint64_t total = 0;
  for (const auto& a : appliers_) total += a->applied_count();
  return total;
}

}  // namespace ritas::smr
