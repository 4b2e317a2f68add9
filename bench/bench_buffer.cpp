// Zero-copy buffer layer: copies and frame encodes per atomic-broadcast
// delivery, before/after the mbuf refactor, at 10 B - 10 kB payloads.
//
// "Before" (the legacy Bytes-valued path) is computed analytically from the
// same run's traffic counters: it encoded one frame per transport send
// (frames = msgs_sent) and copied every delivered payload byte out of the
// arrival frame, so its copies equal payload_bytes_aliased, which each row
// carries once. The measured "after" numbers come straight from the
// stack's metrics; the binary exits non-zero unless encode-once fan-out
// holds exactly (frames_encoded == broadcast count) and batched receives
// hand payloads out as slices of the arrival frame (payload_bytes_aliased
// > 0), recorded as gates in BENCH_buffer.json. The receive path has no copying branch
// to count: decode and batch unpack only ever alias.
//
// A second, REAL-TIME section measures the transport fast path over actual
// loopback TCP: a 2-node pair pushes a burst of small frames through the
// batched sendmsg drain and reports syscalls per frame ("syscall_rows" in
// the artifact). Gated: a bursty 10 B workload must pack >= 4 frames per
// sendmsg. That assembling a batch copies no payload bytes (scatter-gather
// straight from the retained queue) is a unit test, test_transport_batch.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/atomic_broadcast.h"
#include "crypto/keychain.h"
#include "net/tcp_transport.h"
#include "paper_harness.h"

namespace ritas::bench {
namespace {

struct BufferResult {
  std::uint64_t deliveries = 0;        // AB deliveries across the cluster
  std::uint64_t frames_encoded = 0;    // Message::encode calls (send path)
  std::uint64_t transport_sends = 0;   // legacy path encoded one frame per send
  std::uint64_t msg_broadcasts = 0;    // protocol broadcast/send fan-outs
  std::uint64_t bytes_aliased = 0;     // receive-path payload bytes aliased
};

/// One failure-free AB burst; every metric summed over the whole cluster.
BufferResult run_buffer_burst(std::uint32_t burst, std::size_t msg_bytes,
                              bool batched, std::uint64_t seed,
                              sim::oracle::Report& oracles) {
  ClusterOptions o;
  o.n = 4;
  o.seed = seed;
  o.lan = paper_lan(true);
  o.stack.ab_batch.enabled = batched;
  Cluster c(o);

  const std::uint32_t per = burst / 4;
  const std::uint32_t total = per * 4;
  sim::LayerRun::Inputs in;
  for (ProcessId p : c.live()) {
    in.calls.push_back({p, std::vector<Bytes>(per, Bytes(msg_bytes, 0x62))});
  }
  const Time t0 = c.now();
  sim::LayerRun run(c, sim::Workload::kAtomicBroadcast, 0, std::move(in));
  if (batched) {
    for (ProcessId p : c.live()) c.call(p, [&, p] { run.ab_root(p).flush(); });
  }
  c.run_until([&] { return run.ab().log(0).size() >= total; }, t0 + kDeadline);

  BufferResult r;
  const Metrics m = c.total_metrics();
  for (ProcessId p = 0; p < 4; ++p) r.deliveries += run.ab().log(p).size();
  r.frames_encoded = m.frames_encoded;
  r.transport_sends = m.msgs_sent;
  r.bytes_aliased = m.payload_bytes_aliased;
  c.run_all();
  run.check(oracles, c.correct_set(), /*complete=*/true);
  return r;
}

/// Exact encode-once check on a pure-broadcast workload: k reliable
/// broadcasts are INIT/ECHO/READY fan-outs only, so every encoded frame is
/// sent to exactly n-1 peers — frames_encoded * (n-1) == msgs_sent, and
/// frames_encoded / broadcasts == 1.0 regardless of n.
bool rb_encode_once(std::uint32_t k, std::uint64_t seed,
                    sim::oracle::Report& oracles) {
  ClusterOptions o;
  o.n = 4;
  o.seed = seed;
  o.lan = paper_lan(true);
  Cluster c(o);
  std::deque<sim::LayerRun> runs;
  for (std::uint32_t i = 0; i < k; ++i) {
    const sim::LayerRun& run = runs.emplace_back(
        c, sim::Workload::kReliableBroadcast, i + 1,
        sim::LayerRun::Inputs{.calls = {{0, {to_bytes("encode-once")}}}});
    c.run_until([&] { return run.delivered()[0].has_value(); },
                c.now() + kDeadline);
  }
  const Metrics m = c.total_metrics();
  c.run_all();
  for (const sim::LayerRun& run : runs) {
    run.check(oracles, c.correct_set(), /*complete=*/true);
  }
  return m.frames_encoded * 3 == m.msgs_sent;
}

// --- real-TCP syscall batching section -------------------------------------

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

struct SyscallResult {
  std::uint64_t frames = 0;
  std::uint64_t sendmsg_calls = 0;
  std::uint64_t bytes_to_kernel = 0;
  double frames_per_syscall = 0;
};

/// One bursty sender → receiver run over real loopback TCP: kFrames small
/// frames handed from the app thread to the sender's poll thread (the
/// transport's owner), which enqueues them between its flushes; the
/// sender's counters tell how many frames each sendmsg carried.
SyscallResult run_syscall_burst(std::size_t msg_bytes) {
  constexpr std::uint32_t kFrames = 2000;
  const auto peers = reserve_local_ports(2);
  std::vector<std::unique_ptr<KeyChain>> keys;
  std::vector<std::unique_ptr<net::TcpTransport>> tp;
  std::atomic<std::uint64_t> received{0};
  for (std::uint32_t p = 0; p < 2; ++p) {
    keys.push_back(std::make_unique<KeyChain>(
        KeyChain::deal(to_bytes("bench-buffer-syscalls"), 2, p)));
    net::TcpTransport::Options o;
    o.n = 2;
    o.self = p;
    o.peers = peers;
    o.rng_seed = 77 + p;
    tp.push_back(std::make_unique<net::TcpTransport>(o, *keys[p]));
  }
  tp[0]->set_sink([&](ProcessId, Slice) { received.fetch_add(1); });
  tp[1]->set_sink([](ProcessId, Slice) {});

  std::atomic<bool> stop{false};
  std::mutex lane_mutex;
  std::vector<Bytes> lane;  // frames for the sender's poll thread to send
  std::vector<std::thread> runners;
  for (std::uint32_t p = 0; p < 2; ++p) {
    runners.emplace_back([&, p] {
      tp[p]->start();
      std::vector<Bytes> frames;
      while (!stop.load()) {
        if (p == 1) {
          {
            std::lock_guard<std::mutex> lock(lane_mutex);
            frames.swap(lane);
          }
          for (Bytes& f : frames) tp[1]->send(0, std::move(f));
          frames.clear();
        }
        tp[p]->poll_once(10);
      }
    });
  }
  auto deadline_spin = [](const std::function<bool()>& cond) {
    for (int waited = 0; waited < 60'000; waited += 2) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return cond();
  };
  SyscallResult r;
  if (deadline_spin([&] { return tp[1]->links_up() == 1; })) {
    const Bytes payload(msg_bytes, 0x73);
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      {
        std::lock_guard<std::mutex> lock(lane_mutex);
        lane.push_back(payload);
      }
      tp[1]->wakeup();
    }
    deadline_spin([&] { return received.load() >= kFrames; });
  }
  const auto s = tp[1]->stats();
  r.frames = s.frames_sent;
  r.sendmsg_calls = s.sendmsg_calls;
  r.bytes_to_kernel = s.bytes_to_kernel;
  r.frames_per_syscall = s.frames_per_syscall();
  stop.store(true);
  for (auto& t : tp) t->wakeup();
  for (auto& t : runners) t.join();
  for (auto& t : tp) t->stop();
  return r;
}

int run() {
  const std::size_t sizes[4] = {10, 100, 1000, 10000};
  const std::uint32_t kBurst = 100;
  const std::uint64_t kSeed = 4242;

  print_header(
      "Buffer layer: copies / frame encodes per AB delivery (n=4, burst=100)");

  BenchReport report("buffer");
  report.config("n", 4);
  report.config("burst", kBurst);
  report.config("seed", kSeed);
  report.compare(
      R"({"key":["msg_bytes","batched"],)"
      R"("fields":{"frames_encoded":{"better":"lower","tolerance":0.2}}})");

  bool encode_once = true;
  sim::oracle::Report oracles;

  std::printf("\n%-6s %-9s %10s %12s %12s %14s\n", "m", "mode", "deliveries",
              "frames", "legacy_frames", "rx_aliased_B");
  for (int mode = 0; mode < 2; ++mode) {
    const bool batched = mode == 1;
    for (std::size_t sz : sizes) {
      const BufferResult r = run_buffer_burst(kBurst, sz, batched, kSeed, oracles);
      // Legacy baseline, same traffic: one encode per transport send.
      const std::uint64_t legacy_frames = r.transport_sends;
      std::printf("%-6zu %-9s %10llu %12llu %12llu %14llu\n", sz,
                  batched ? "batched" : "unbatched",
                  static_cast<unsigned long long>(r.deliveries),
                  static_cast<unsigned long long>(r.frames_encoded),
                  static_cast<unsigned long long>(legacy_frames),
                  static_cast<unsigned long long>(r.bytes_aliased));
      // The AB workload mixes broadcasts with EB's per-peer unicasts
      // (VECT/MAT), so the exact-ratio check lives in rb_encode_once();
      // here every mode/size must at least beat the one-encode-per-send
      // legacy baseline, and batched receives must alias their frame.
      const std::string cell = "m" + std::to_string(sz) +
                               (batched ? "_batched" : "_unbatched");
      encode_once &= report.gate(cell + "_frames_encoded_lt_legacy",
                                 r.frames_encoded, "<", legacy_frames);
      if (batched) {
        report.gate(cell + "_rx_bytes_aliased", r.bytes_aliased, ">", 0);
      }
      report.add_row([&](JsonWriter& w) {
        w.field("msg_bytes", static_cast<std::uint64_t>(sz));
        w.field("batched", batched);
        w.field("deliveries", r.deliveries);
        w.field("frames_encoded", r.frames_encoded);
        w.field("legacy_frames_encoded", legacy_frames);
        w.field("frames_saved", legacy_frames - r.frames_encoded);
        w.field("payload_bytes_aliased", r.bytes_aliased);
      });
    }
  }

  const bool rb_exact = report.gate("rb_frames_times_fanout_eq_sends",
                                    rb_encode_once(20, kSeed, oracles));
  report.oracles(oracles);

  // Real-TCP transport fast path: syscalls per frame under a small-frame
  // burst through the batched drain. Real-time numbers (loopback kernel in
  // the loop), so the gates are shape-only: batching must pack frames
  // (>= 4 per sendmsg at 10 B; one write per frame would read 1).
  constexpr double kMinFramesPerSyscall10B = 4.0;
  bool syscall_gate = true;
  std::printf("\n%-6s %10s %12s %14s %12s\n", "m", "frames", "sendmsg",
              "B_to_kernel", "frames/call");
  for (const std::size_t sz : {std::size_t{10}, std::size_t{100},
                               std::size_t{1000}}) {
    const SyscallResult r = run_syscall_burst(sz);
    std::printf("%-6zu %10llu %12llu %14llu %12.1f\n", sz,
                static_cast<unsigned long long>(r.frames),
                static_cast<unsigned long long>(r.sendmsg_calls),
                static_cast<unsigned long long>(r.bytes_to_kernel),
                r.frames_per_syscall);
    const std::string cell = "syscall_m" + std::to_string(sz) + "_batched";
    // Batching must pack frames everywhere, and >= 4 on the 10 B burst.
    syscall_gate &= report.gate(cell + "_frames_per_syscall",
                                r.frames_per_syscall, sz == 10 ? ">=" : ">",
                                sz == 10 ? kMinFramesPerSyscall10B : 1.0);
    report.add_section_row("syscall_rows", [&](JsonWriter& w) {
      w.field("msg_bytes", static_cast<std::uint64_t>(sz));
      w.field("frames_sent", r.frames);
      w.field("sendmsg_calls", r.sendmsg_calls);
      w.field("bytes_to_kernel", r.bytes_to_kernel);
      w.field("frames_per_syscall", r.frames_per_syscall);
    });
  }

  std::printf("\nchecks:\n");
  std::printf("  RB broadcasts: frames*(n-1) == sends exactly : %s\n",
              rb_exact ? "PASS" : "FAIL");
  std::printf("  AB frames_encoded < legacy one-per-send      : %s\n",
              encode_once ? "PASS" : "FAIL");
  std::printf("  batched 10 B burst >= %.0f frames/sendmsg    : %s\n",
              kMinFramesPerSyscall10B, syscall_gate ? "PASS" : "FAIL");
  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(), wrote ? "PASS" : "FAIL");
  return wrote ? report.exit_code() : 1;
}

}  // namespace
}  // namespace ritas::bench

int main() { return ritas::bench::run(); }
