// Intrusion-tolerant replicated key-value store over real TCP.
//
// State machine replication (the canonical application the paper's
// introduction motivates) on the public ritas::Context API, served by the
// stack's own SMR layer: every node runs an smr::ShardedService with a
// single shard (G=1) over an smr::KvMachine, subscribes to the atomic
// broadcast (ab_subscribe), and feeds the decided command stream to the
// service, staying identical to its peers. Command framing, (client, seq)
// exactly-once dedup and the SET/DEL/CAS semantics all come from src/smr
// — the example only wires transport to service. Payload batching
// (Options::batch) packs bursts of small commands into shared
// dissemination broadcasts. For the same state machine surviving an
// actively Byzantine replica, see examples/faultload_explorer.cpp; for a
// multi-group deployment of the same service, see sim::ShardedCluster and
// bench_shard_scaling.
//
//   $ ./replicated_kv
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ritas/context.h"
#include "smr/kv_machine.h"
#include "smr/sharded_service.h"

using namespace ritas;

namespace {

constexpr std::uint32_t kN = 4;

std::vector<net::PeerAddr> reserve_local_ports(std::uint32_t n) {
  std::vector<net::PeerAddr> peers;
  std::vector<int> fds;
  for (std::uint32_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    peers.push_back(net::PeerAddr{"127.0.0.1", ntohs(addr.sin_port)});
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  return peers;
}

/// One node's service plus the lock that bridges the Context's poll
/// thread (on_delivered runs in the ab_subscribe callback) and main-thread
/// readers. The service itself is single-threaded by design — the harness
/// owns the synchronization, exactly like the sim loop owns it in tests.
struct KvReplica {
  KvReplica()
      : service({.shards = 1, .key_of = smr::kv_key_of},
                [](smr::ShardId) { return std::make_unique<smr::KvMachine>(); }) {}

  std::string snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return to_string(service.snapshot(0));
  }
  std::uint64_t applied() {
    std::lock_guard<std::mutex> lock(mu);
    return service.applied_total();
  }
  std::uint64_t duplicates() {
    std::lock_guard<std::mutex> lock(mu);
    return service.duplicates_skipped(0);
  }

  std::mutex mu;
  smr::ShardedService service;
};

smr::KvCommand set(const std::string& key, const std::string& value) {
  smr::KvCommand c;
  c.op = smr::KvCommand::Op::kSet;
  c.key = key;
  c.value = value;
  return c;
}
smr::KvCommand del(const std::string& key) {
  smr::KvCommand c;
  c.op = smr::KvCommand::Op::kDel;
  c.key = key;
  return c;
}
smr::KvCommand cas(const std::string& key, const std::string& expected,
                   const std::string& value) {
  smr::KvCommand c;
  c.op = smr::KvCommand::Op::kCas;
  c.key = key;
  c.value = value;
  c.expected = expected;
  return c;
}

}  // namespace

int main() {
  const auto peers = reserve_local_ports(kN);

  std::vector<KvReplica> replicas(kN);
  std::vector<std::unique_ptr<Context>> nodes;
  for (std::uint32_t p = 0; p < kN; ++p) {
    Context::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("kv-shared-secret");
    o.batch.enabled = true;  // wire-format switch: identical at every node
    nodes.push_back(std::make_unique<Context>(o));
    // Outbound: the service frames the command, the context orders it.
    replicas[p].service.bind_submitter(
        [&nodes, p](smr::ShardId, const Bytes& command) {
          nodes[p]->ab_bcast(command);
        });
    // Inbound: subscribe before start(); the decided stream drives the
    // service directly on the poll thread, in total order.
    nodes[p]->ab_subscribe([&replicas, p](Context::AbDelivery d) {
      std::lock_guard<std::mutex> lock(replicas[p].mu);
      replicas[p].service.on_delivered(0, d.payload);
    });
  }

  std::printf("establishing the TCP mesh (4 replicas, batching on)...\n");
  {
    std::vector<std::thread> starters;
    for (auto& node : nodes) starters.emplace_back([&node] { node->start(); });
    for (auto& t : starters) t.join();
  }

  // Clients submit commands at different replicas concurrently. One
  // command is retried through a second replica to exercise exactly-once
  // application, and two CAS operations race: the total order decides the
  // winner, the same winner everywhere.
  const std::vector<smr::KvCommand> workload = {
      set("user:1", "alice"),         set("user:2", "bob"),
      set("balance:1", "100"),        cas("balance:1", "100", "90"),
      cas("balance:1", "100", "80"),  set("user:3", "carol"),
      del("user:2"),                  set("balance:3", "55"),
  };
  constexpr std::uint64_t kClient = 42;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const std::uint32_t via = static_cast<std::uint32_t>(i % kN);
    replicas[via].service.submit(kClient, i, workload[i].encode());
    if (i == 2) {  // impatient client retries through another front
      replicas[0].service.submit(kClient, i, workload[i].encode());
    }
  }
  for (auto& node : nodes) node->ab_flush();  // seal the submission tails

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  auto all_applied = [&] {
    for (KvReplica& r : replicas) {
      if (r.applied() < workload.size()) return false;
    }
    return true;
  };
  while (!all_applied() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!all_applied()) {
    std::fprintf(stderr, "replication did not complete\n");
    return 1;
  }

  std::printf("replicated KV store, n=4, smr::ShardedService (G=1)\n");
  std::printf("final state at replica 0: %s\n", replicas[0].snapshot().c_str());
  bool consistent = true;
  std::uint64_t duplicates = 0;
  for (std::uint32_t p = 0; p < kN; ++p) {
    const bool same = replicas[p].snapshot() == replicas[0].snapshot();
    std::printf("replica %u: %s, %llu applied, %llu duplicates skipped\n", p,
                same ? "state identical" : "STATE DIVERGED",
                static_cast<unsigned long long>(replicas[p].applied()),
                static_cast<unsigned long long>(replicas[p].duplicates()));
    consistent = consistent && same;
    duplicates += replicas[p].duplicates();
  }
  const std::string digest = replicas[0].snapshot();
  const bool won90 = digest.find("balance:1=90") != std::string::npos;
  const bool won80 = digest.find("balance:1=80") != std::string::npos;
  std::printf("exactly one racing CAS won (%s): %s\n", won90 ? "90" : "80",
              (won90 ^ won80) ? "yes" : "NO");
  std::printf("retried command deduplicated at every replica: %s\n",
              duplicates == kN ? "yes" : "NO");
  return (consistent && (won90 ^ won80) && duplicates == kN) ? 0 : 1;
}
