// The RITAS stack over real TCP sockets, using the public ritas::Context
// API that mirrors the paper's C interface (§3.1): init the context, add
// the group, call the services, destroy.
//
// This binary runs all four nodes as threads of one process for a
// self-contained demo; each node owns a full Context (its own sockets,
// poll thread, keys and protocol stack), so the same code deploys one
// node per host by passing each host's id and the shared peer list.
//
//   $ ./tcp_cluster
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "ritas/context.h"

using namespace ritas;

namespace {

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

void node_main(Context& ctx) {
  const ProcessId self = ctx.self();

  // 1. Reliable broadcast: node 0 announces the epoch.
  if (self == 0) ctx.rb_bcast(to_bytes("epoch-42"));
  const auto epoch = ctx.rb_recv();
  std::printf("[node %u] reliable broadcast from p%u: %s\n", self, epoch.origin,
              to_string(epoch.payload).c_str());

  // 2. Binary consensus: vote to accept the epoch.
  const bool accept = ctx.bc(true);
  std::printf("[node %u] binary consensus decided: %s\n", self,
              accept ? "accept" : "reject");

  // 3. Multi-valued consensus on a leader string (all propose the same).
  const auto leader = ctx.mvc(to_bytes("node-2"));
  std::printf("[node %u] multi-valued consensus: %s\n", self,
              leader ? to_string(*leader).c_str() : "(default)");

  // 4. Vector consensus over per-node status strings.
  const auto statuses = ctx.vc(to_bytes("ready-" + std::to_string(self)));
  std::string joined;
  for (const auto& s : statuses) joined += (s ? to_string(*s) : "_") + " ";
  std::printf("[node %u] vector consensus: %s\n", self, joined.c_str());

  // 5. Atomic broadcast: everyone publishes; everyone sees one order.
  ctx.ab_bcast(to_bytes("tx-from-" + std::to_string(self)));
  std::string order;
  for (int i = 0; i < 4; ++i) {
    order += to_string(ctx.ab_recv().payload) + " ";
  }
  std::printf("[node %u] atomic order: %s\n", self, order.c_str());
}

}  // namespace

int main() {
  constexpr std::uint32_t kN = 4;
  const auto peers = reserve_local_ports(kN);

  std::vector<std::unique_ptr<Context>> nodes;
  for (std::uint32_t p = 0; p < kN; ++p) {
    Context::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("demo-shared-secret");  // dealer, out of band
    nodes.push_back(std::make_unique<Context>(o));
  }

  std::printf("establishing the TCP mesh (4 nodes, HMAC-authenticated)...\n");
  {
    std::vector<std::thread> starters;
    for (auto& node : nodes) {
      starters.emplace_back([&node] { node->start(); });
    }
    for (auto& t : starters) t.join();
  }

  std::vector<std::thread> threads;
  for (auto& node : nodes) {
    threads.emplace_back([&node] { node_main(*node); });
  }
  for (auto& t : threads) t.join();

  const auto stats = nodes[0]->transport_stats();
  std::printf("node 0 transport: %llu frames sent, %llu received, %llu MAC failures\n",
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.mac_failures));
  return 0;
}
