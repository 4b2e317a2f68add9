// Quickstart: four RITAS nodes over real TCP agree on a total order of
// messages with the atomic broadcast service, showing every receive mode
// of the ritas::Context API:
//
//   node 0  ab_subscribe  callback on the poll thread
//   node 1  ab_try_recv   non-blocking poll
//   node 2  ab_recv_for   bounded wait
//   node 3  ab_recv       classic blocking receive (the paper's §3.1)
//
// Payload batching is enabled (Options::stack.ab_batch), so bursts of small
// messages ride in shared AB_MSG dissemination broadcasts. All four nodes
// run as threads of one process for a self-contained demo; the same code
// deploys one node per host by passing each host's id and the shared peer
// list.
//
//   $ ./quickstart
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

using namespace ritas;

namespace {

constexpr std::uint32_t kN = 4;
constexpr std::size_t kMsgsPerNode = 2;
constexpr std::size_t kTotal = kN * kMsgsPerNode;

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

std::string render(const Context::AbDelivery& d) {
  return "p" + std::to_string(d.origin) + ":" + to_string(d.payload);
}

/// Publishes this node's burst, then receives kTotal deliveries with the
/// mode assigned to the node, appending to `order` under `mu`. Node 0's
/// subscription (installed before start()) fills `order` from the poll
/// thread instead.
void node_main(Context& ctx, std::vector<std::string>& order, std::mutex& mu) {
  const ProcessId self = ctx.self();

  // Everyone publishes its burst; batching packs messages submitted
  // back-to-back into shared dissemination broadcasts.
  for (std::size_t i = 0; i < kMsgsPerNode; ++i) {
    ctx.ab_bcast(to_bytes("msg-" + std::to_string(self) + "." + std::to_string(i)));
  }
  ctx.ab_flush();  // seal the tail of the burst immediately

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() >= kTotal) break;
    }
    switch (self) {
      case 0:  // subscriber fills `order`; just wait
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        break;
      case 1:  // non-blocking poll
        if (auto d = ctx.ab_try_recv()) {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(render(*d));
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        break;
      case 2:  // bounded wait
        if (auto d = ctx.ab_recv_for(std::chrono::milliseconds(50))) {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(render(*d));
        }
        break;
      default: {  // classic blocking receive
        auto d = ctx.ab_recv();
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(render(d));
        break;
      }
    }
  }
}

}  // namespace

int main() {
  const auto peers = reserve_local_ports(kN);

  std::vector<std::unique_ptr<Context>> nodes;
  for (std::uint32_t p = 0; p < kN; ++p) {
    Context::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("demo-shared-secret");  // dealer, out of band
    o.stack.ab_batch.enabled = true;  // wire-format switch: identical at every node
    nodes.push_back(std::make_unique<Context>(o));
  }

  std::vector<std::vector<std::string>> orders(kN);
  std::vector<std::mutex> mus(kN);

  // Node 0 demonstrates callback mode. Subscribing before start() means no
  // delivery can ever race into the queue instead of the callback.
  nodes[0]->ab_subscribe([&](Context::AbDelivery d) {
    std::lock_guard<std::mutex> lock(mus[0]);
    orders[0].push_back(render(d));
  });

  std::printf("establishing the TCP mesh (4 nodes, HMAC-authenticated, batching on)...\n");
  {
    std::vector<std::thread> starters;
    for (auto& node : nodes) {
      starters.emplace_back([&node] { node->start(); });
    }
    for (auto& t : starters) t.join();
  }

  {
    std::vector<std::thread> threads;
    for (std::uint32_t p = 0; p < kN; ++p) {
      threads.emplace_back([&, p] { node_main(*nodes[p], orders[p], mus[p]); });
    }
    for (auto& t : threads) t.join();
  }

  bool ok = orders[0].size() == kTotal;
  for (std::uint32_t p = 1; p < kN; ++p) ok = ok && orders[p] == orders[0];
  if (!ok) {
    std::fprintf(stderr, "orders diverged or deliveries are missing\n");
    return 1;
  }

  std::printf("total order agreed by all 4 nodes:\n");
  for (std::size_t i = 0; i < orders[0].size(); ++i) {
    std::printf("  %zu. %s\n", i + 1, orders[0][i].c_str());
  }
  const Metrics m = nodes[0]->metrics();
  std::printf("node 0 sealed %llu batches carrying %llu messages\n",
              static_cast<unsigned long long>(m.ab_batches_sealed),
              static_cast<unsigned long long>(m.ab_batch_msgs));
  return 0;
}
