// Intrusion-tolerant replicated key-value store over real TCP.
//
// State machine replication (the canonical application the paper's
// introduction motivates) on ritas::ShardedNode with one shard (G = 1):
// each node runs one protocol stack, one atomic broadcast root and an
// smr::ShardedService over an smr::KvMachine, and applies the decided
// command stream in total order, staying identical to its peers. Command
// framing, (client, seq) exactly-once dedup and the SET/DEL/CAS semantics
// all come from src/smr; the example only submits and compares. Payload
// batching (Options::stack.ab_batch) packs bursts of small commands into
// shared dissemination broadcasts. For more shards over the same mesh,
// raise Options::groups (see sim::ShardedCluster and bench_shard_scaling).
//
//   $ ./replicated_kv
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ritas/sharded_node.h"
#include "smr/kv_machine.h"

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

  std::vector<std::unique_ptr<ShardedNode>> nodes;
  for (std::uint32_t p = 0; p < kN; ++p) {
    ShardedNode::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("kv-shared-secret");
    o.stack.ab_batch.enabled = true;  // wire-format switch: identical at every node
    nodes.push_back(std::make_unique<ShardedNode>(o));
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
    nodes[via]->submit(kClient, i, workload[i].encode());
    if (i == 2) {  // impatient client retries through another front
      nodes[0]->submit(kClient, i, workload[i].encode());
    }
  }

  // Every replica applies the eight commands; the retry's later copy may
  // be ordered after the last of them, so also wait (reading the service
  // on the node's poll thread) until each replica has skipped it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  bool applied = true;
  for (auto& node : nodes) {
    applied = applied && node->wait_applied_at_least(
                             workload.size(), std::chrono::minutes(2));
    std::uint64_t skipped = 0;
    while (applied && skipped == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      node->node().run(
          [&node, &skipped] { skipped = node->service().duplicates_skipped(0); });
      if (skipped == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Stopping joins every poll thread, so the services are safe to read.
  for (auto& node : nodes) node->stop();
  if (!applied) {
    std::fprintf(stderr, "replication did not complete\n");
    return 1;
  }

  auto snapshot = [&nodes](std::uint32_t p) {
    return to_string(nodes[p]->service().snapshot(0));
  };
  std::printf("replicated KV store, n=4, ShardedNode (G=1)\n");
  std::printf("final state at replica 0: %s\n", snapshot(0).c_str());
  bool consistent = true;
  std::uint64_t duplicates = 0;
  for (std::uint32_t p = 0; p < kN; ++p) {
    const bool same = snapshot(p) == snapshot(0);
    const std::uint64_t dup = nodes[p]->service().duplicates_skipped(0);
    std::printf("replica %u: %s, %llu applied, %llu duplicates skipped\n", p,
                same ? "state identical" : "STATE DIVERGED",
                static_cast<unsigned long long>(nodes[p]->applied_total()),
                static_cast<unsigned long long>(dup));
    consistent = consistent && same;
    duplicates += dup;
  }
  const std::string digest = snapshot(0);
  const bool won90 = digest.find("balance:1=90") != std::string::npos;
  const bool won80 = digest.find("balance:1=80") != std::string::npos;
  std::printf("exactly one racing CAS won (%s): %s\n", won90 ? "90" : "80",
              (won90 ^ won80) ? "yes" : "NO");
  std::printf("retried command deduplicated at every replica: %s\n",
              duplicates == kN ? "yes" : "NO");
  return (consistent && (won90 ^ won80) && duplicates == kN) ? 0 : 1;
}
