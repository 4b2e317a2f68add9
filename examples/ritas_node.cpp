// ritas_node — a standalone RITAS group member, one process per node.
//
// The deployment shape of the paper's evaluation: run n instances (on one
// machine or many), each with its own id, give all of them the same
// member list, and they form an intrusion-tolerant atomic broadcast group.
// Lines typed on stdin are atomically broadcast; deliveries print in the
// (identical) total order at every node.
//
//   # node 0 of a local 4-node group:
//   $ M=127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//   $ ./ritas_node --id 0 --members $M --secret demo
//
// Run the other three with --id 1/2/3 in separate terminals, then type.
#include <cstdio>
#include <optional>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ritas/context.h"

using namespace ritas;

namespace {

struct Args {
  std::uint32_t id = 0;
  std::vector<net::PeerAddr> members;
  std::string secret = "change-me";
  bool burst = false;
  std::uint32_t burst_count = 0;
};

bool parse_members(const std::string& list, std::vector<net::PeerAddr>& out) {
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.rfind(':');
    if (colon == std::string::npos) return false;
    net::PeerAddr a;
    a.host = item.substr(0, colon);
    a.port = static_cast<std::uint16_t>(std::stoi(item.substr(colon + 1)));
    out.push_back(a);
  }
  return out.size() >= 4;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --id N --members host:port,host:port,... "
               "[--secret S] [--burst K]\n"
               "  --id       this node's index into the member list\n"
               "  --members  every group member, in id order (>= 4)\n"
               "  --secret   dealer-distributed group secret\n"
               "  --burst    broadcast K messages immediately, then report\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_id = false, have_members = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--id") {
      args.id = static_cast<std::uint32_t>(std::atoi(next()));
      have_id = true;
    } else if (a == "--members") {
      if (!parse_members(next(), args.members)) {
        usage(argv[0]);
        return 2;
      }
      have_members = true;
    } else if (a == "--secret") {
      args.secret = next();
    } else if (a == "--burst") {
      args.burst = true;
      args.burst_count = static_cast<std::uint32_t>(std::atoi(next()));
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_id || !have_members || args.id >= args.members.size()) {
    usage(argv[0]);
    return 2;
  }

  Context::Options o;
  o.n = static_cast<std::uint32_t>(args.members.size());
  o.self = args.id;
  o.peers = args.members;
  o.master_secret = to_bytes(args.secret);
  std::optional<Context> ctx_holder;
  try {
    ctx_holder.emplace(std::move(o));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "[ritas] invalid configuration: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // The node listens from construction: its port is taken.
    std::fprintf(stderr, "[ritas] failed to join the group: %s\n", e.what());
    return 1;
  }
  Context& ctx = *ctx_holder;

  std::fprintf(stderr, "[ritas] node %u/%u connecting...\n", args.id,
               ctx.n());
  try {
    ctx.start();
  } catch (const std::exception& e) {
    // A mesh that never reaches n-f-1 links (peers down, or a wrong
    // --secret: the authenticated handshake refuses an impostor).
    std::fprintf(stderr, "[ritas] failed to join the group: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "[ritas] mesh up; tolerating f=%u Byzantine members\n",
               max_faults(ctx.n()));

  // Delivery printer; ab_recv throws when the context stops, which is our
  // signal to exit.
  std::thread receiver([&ctx] {
    try {
      for (std::uint64_t i = 1;; ++i) {
        const auto d = ctx.ab_recv();
        std::printf("%6llu | p%u | %s\n", static_cast<unsigned long long>(i),
                    d.origin, to_string(d.payload).c_str());
        std::fflush(stdout);
      }
    } catch (const std::exception&) {
      // context stopped
    }
  });
  receiver.detach();

  if (args.burst) {
    for (std::uint32_t i = 0; i < args.burst_count; ++i) {
      ctx.ab_bcast(to_bytes("burst-" + std::to_string(args.id) + "-" +
                            std::to_string(i)));
    }
    std::fprintf(stderr, "[ritas] burst of %u sent\n", args.burst_count);
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "/quit") break;
    if (!line.empty()) ctx.ab_bcast(to_bytes(line));
  }
  std::fprintf(stderr, "[ritas] shutting down\n");
  ctx.stop();
  return 0;
}
