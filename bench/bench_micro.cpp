// Microbenchmarks (google-benchmark) for the primitives under the stack:
// hashing, MACs, serialization, message codec, in-memory single-process
// protocol machinery, and building a real-TCP front (keychain, listen
// socket, stacks, roots), the first stage of a node's set-up. These are
// wall-clock benches of this host, not the simulated testbed.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/atomic_broadcast.h"
#include "core/message.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "ritas/context.h"
#include "ritas/sharded_node.h"

namespace {

using namespace ritas;

Bytes make_payload(std::size_t size) {
  Bytes b(size);
  std::uint64_t s = 42;
  for (auto& x : b) x = static_cast<std::uint8_t>(splitmix64(s));
  return b;
}

void BM_Sha1(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha256(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = make_payload(32);
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

// The same MAC from a key keyed once (KeyChain::mac_key): copies the cached
// ipad/opad states instead of hashing the two key blocks per call.
void BM_HmacSha256Keyed(benchmark::State& state) {
  const HmacSha256Key key(make_payload(32));
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.mac(ByteView(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256Keyed)->Arg(64)->Arg(1024);

void BM_EchoBroadcastHashVector(benchmark::State& state) {
  // The per-INIT cost at an echo-broadcast receiver: n keyed hashes.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto keys = KeyChain::deal(make_payload(32), n, 0);
  const Bytes m = make_payload(1024);
  for (auto _ : state) {
    for (std::uint32_t j = 0; j < n; ++j) {
      Sha1 h;
      h.update(m);
      h.update(keys.key(j));
      benchmark::DoNotOptimize(h.finish());
    }
  }
}
BENCHMARK(BM_EchoBroadcastHashVector)->Arg(4)->Arg(10)->Arg(31);

void BM_MessageEncode(benchmark::State& state) {
  Message msg;
  msg.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
                 .child({ProtocolType::kMultiValuedConsensus, 3})
                 .child({ProtocolType::kBinaryConsensus, 0})
                 .child({ProtocolType::kReliableBroadcast, 17});
  msg.tag = 2;
  msg.payload = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.encode());
  }
}
BENCHMARK(BM_MessageEncode)->Arg(10)->Arg(1024)->Arg(10240);

void BM_MessageDecode(benchmark::State& state) {
  Message msg;
  msg.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0)
                 .child({ProtocolType::kReliableBroadcast, 17});
  msg.payload = make_payload(static_cast<std::size_t>(state.range(0)));
  const Buffer frame = msg.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Message::decode(frame));
  }
}
BENCHMARK(BM_MessageDecode)->Arg(10)->Arg(1024)->Arg(10240);

void BM_IdVectorCodec(benchmark::State& state) {
  std::vector<AtomicBroadcast::MsgId> ids;
  for (std::uint32_t i = 0; i < state.range(0); ++i) {
    ids.push_back({i % 4, i});
  }
  for (auto _ : state) {
    const Bytes enc = AtomicBroadcast::encode_ids(ids);
    benchmark::DoNotOptimize(AtomicBroadcast::decode_ids(enc));
  }
}
BENCHMARK(BM_IdVectorCodec)->Arg(16)->Arg(256)->Arg(4096);

void BM_RngCoin(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.coin());
  }
}
BENCHMARK(BM_RngCoin);

/// Options for process 0 of a 4-process group whose own port is 0: the
/// listen socket binds an ephemeral port and no peer is ever dialed, since
/// nothing is started. Each iteration builds and destroys one front.
template <typename Options>
Options construct_options() {
  Options o;
  o.n = 4;
  o.self = 0;
  o.peers = {{"127.0.0.1", 0}, {"127.0.0.1", 1}, {"127.0.0.1", 2},
             {"127.0.0.1", 3}};
  o.master_secret = to_bytes("bench-micro");
  o.rng_seed = 1;
  return o;
}

void BM_ContextConstruct(benchmark::State& state) {
  const auto opts = construct_options<Context::Options>();
  for (auto _ : state) {
    Context ctx(opts);
    benchmark::DoNotOptimize(&ctx);
  }
}
BENCHMARK(BM_ContextConstruct);

void BM_ShardedNodeConstruct(benchmark::State& state) {
  auto opts = construct_options<ShardedNode::Options>();
  opts.groups = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    ShardedNode node(opts);
    benchmark::DoNotOptimize(&node);
  }
}
BENCHMARK(BM_ShardedNodeConstruct)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
