// The node runtimes the benchmark drives, behind one small interface so a
// single load generator and checker serve all of them:
//
//   * ContextNode — ritas::Context, the single-group AB session;
//   * ShardNode   — ritas::ShardedNode, G KV shards over one mesh;
//   * TracedNode  — the same parts either runtime composes (TcpTransport,
//     ProtocolStack, GroupMux, AtomicBroadcast, ShardedService) run by the
//     same inline loop, with spans recorded at each layer boundary. It
//     exists only for the traced run; end-to-end numbers come from the
//     first two.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/atomic_broadcast.h"
#include "core/group_mux.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "net/tcp_transport.h"
#include "smr/sharded_service.h"

namespace ritas::bench {

/// An op is named by its origin node and that node's submit sequence.
inline std::uint64_t op_key(std::uint32_t origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) << 40) | seq;
}
inline std::uint32_t key_origin(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 40);
}
inline std::uint64_t key_seq(std::uint64_t key) {
  return key & ((std::uint64_t{1} << 40) - 1);
}

/// Called on a node's loop thread once per delivered op: `stream` is the
/// total-order stream it was delivered on (the shard for KV, 0 for AB).
using DeliverFn = std::function<void(std::uint32_t stream, std::uint64_t key)>;

struct NodeConfig {
  std::uint32_t n = 4;
  ProcessId self = 0;
  std::vector<net::PeerAddr> peers;
  /// 1 = one atomic-broadcast group whose payloads start with the op key;
  /// > 1 = a KV service sharded over that many groups.
  std::uint32_t groups = 1;
  std::uint64_t seed = 1;
  DeliverFn on_deliver;
};

class BenchNode {
 public:
  virtual ~BenchNode() = default;
  /// Blocks until the runtime's start threshold of links is up.
  virtual void start() = 0;
  virtual void stop() = 0;
  /// Submits this node's op `seq`: an AB payload, or an encoded KvCommand.
  virtual void submit(std::uint64_t seq, Bytes op) = 0;
  virtual std::vector<LinkState> link_states() = 0;
  virtual net::TcpTransport::Stats transport_stats() const = 0;
  /// Stack counters over the whole run, summed over groups; nullopt where
  /// the runtime does not expose them. Call while running.
  virtual std::optional<Metrics> metrics() { return std::nullopt; }
  /// Per-shard state snapshots (KV only). Call after stop().
  virtual std::vector<Bytes> snapshots() { return {}; }
};

std::unique_ptr<BenchNode> make_context_node(const NodeConfig& cfg);
std::unique_ptr<BenchNode> make_shard_node(const NodeConfig& cfg);

/// Layer boundaries the traced node times. Self time of a span is its
/// duration minus that of the spans nested in it.
enum class Span : std::uint8_t {
  kPoll,      // TcpTransport::poll_once: socket I/O, reassembly, MAC verify
  kOnPacket,  // ProtocolStack/GroupMux::on_packet: decode + protocol handlers
  kSend,      // TcpTransport::send: counter, retain, MAC compute
  kLoop,      // posted tasks (submits) and stack pumps
  kApply,     // smr::StateMachine::apply (KV only)
};
inline constexpr std::size_t kSpanKinds = 5;
const char* span_name(Span s);

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t self_ns = 0;
  Histogram dur_ns;
};

/// What one traced node measured over its recording window.
struct TraceWindow {
  std::array<SpanStats, kSpanKinds> spans{};
  std::uint64_t thread_cpu_ns = 0;  // loop thread CPU over the window
  std::uint64_t wall_ns = 0;
  Metrics metrics;                   // stack counters over the window
  net::TcpTransport::Stats transport;  // transport counters over the window
  std::vector<Slice> frames;         // reservoir sample of sent frames
};

/// Span stack of one loop thread, timed with that thread's CPU clock so
/// the time poll_once spends blocked in epoll_wait is not counted. Used
/// from the loop thread only.
class SpanRecorder {
 public:
  static constexpr std::size_t kSampleFrames = 1024;

  explicit SpanRecorder(std::uint64_t seed) : rng_(seed) {}

  static std::uint64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  void set_on(bool on) { on_ = on; }
  /// Forgets everything recorded so far.
  void reset() {
    stats_ = {};
    frames_.clear();
    seen_ = 0;
  }

  void begin(Span s) {
    if (!on_ || depth_ == open_.size()) return;
    open_[depth_++] = Open{s, thread_cpu_ns(), 0};
  }
  void end() {
    if (!on_ || depth_ == 0) return;
    const Open o = open_[--depth_];
    const std::uint64_t dur = thread_cpu_ns() - o.start;
    SpanStats& st = stats_[static_cast<std::size_t>(o.span)];
    ++st.count;
    st.self_ns += dur > o.child ? dur - o.child : 0;
    st.dur_ns.add(dur);
    if (depth_ > 0) open_[depth_ - 1].child += dur;
  }
  /// Keeps a uniform sample of the frames sent while recording.
  void sample(const Slice& frame) {
    if (!on_) return;
    ++seen_;
    if (frames_.size() < kSampleFrames) {
      frames_.push_back(frame);
    } else if (const std::uint64_t j = rng_.below(seen_); j < kSampleFrames) {
      frames_[j] = frame;
    }
  }

  const std::array<SpanStats, kSpanKinds>& stats() const { return stats_; }
  std::vector<Slice> take_frames() { return std::move(frames_); }

 private:
  struct Open {
    Span span;
    std::uint64_t start;
    std::uint64_t child;
  };
  bool on_ = false;
  std::array<Open, 8> open_{};
  std::size_t depth_ = 0;
  std::array<SpanStats, kSpanKinds> stats_{};
  std::vector<Slice> frames_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

/// The stack's view of the transport: forwards to TcpTransport and times
/// each send as a span.
class SendShim final : public Transport {
 public:
  SendShim(net::TcpTransport& inner, SpanRecorder& rec) : inner_(inner), rec_(rec) {}
  void send(ProcessId to, Slice frame) override {
    rec_.sample(frame);
    rec_.begin(Span::kSend);
    inner_.send(to, std::move(frame));
    rec_.end();
  }
  std::uint64_t now_ns() const override { return inner_.now_ns(); }
  std::vector<LinkState> link_states() const override { return inner_.link_states(); }

 private:
  net::TcpTransport& inner_;
  SpanRecorder& rec_;
};

class TracedNode final : public BenchNode {
 public:
  explicit TracedNode(const NodeConfig& cfg);
  ~TracedNode() override;
  TracedNode(const TracedNode&) = delete;
  TracedNode& operator=(const TracedNode&) = delete;

  void start() override;
  void stop() override;
  void submit(std::uint64_t seq, Bytes op) override;
  std::vector<LinkState> link_states() override { return transport_->link_states(); }
  net::TcpTransport::Stats transport_stats() const override {
    return transport_->stats();
  }
  std::optional<Metrics> metrics() override;
  std::vector<Bytes> snapshots() override;

  /// Opens (true) or closes (false) the recording window; opening again
  /// starts a new window. The loop thread switches at the top of its next
  /// iteration, with no span open; this call returns once it has.
  void record(bool on);
  /// The last closed window.
  const TraceWindow& window() const { return window_; }

 private:
  void loop();
  void switch_recording();
  /// Runs fn on the loop thread (like Context::run_on_reactor) and waits.
  void run_on_loop(std::function<void()> fn);
  void post(std::function<void()> fn);
  void pump_all();

  NodeConfig cfg_;
  KeyChain keys_;
  std::unique_ptr<net::TcpTransport> transport_;
  SpanRecorder rec_;
  SendShim shim_;
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;
  GroupMux mux_;
  std::vector<std::unique_ptr<AtomicBroadcast>> abs_;
  std::unique_ptr<smr::ShardedService> service_;  // KV only

  // Window bookkeeping, loop-thread owned while running.
  Metrics before_window_;
  net::TcpTransport::Stats transport_at_open_;
  std::uint64_t cpu_at_open_ = 0;
  std::uint64_t wall_at_open_ = 0;
  TraceWindow window_;

  std::mutex record_mutex_;
  std::condition_variable record_cv_;
  int record_want_ = 0;  // 0 idle, 1 recording, 2 closed
  int record_have_ = 0;
  std::atomic<bool> record_pending_{false};

  std::mutex tasks_mutex_;
  std::deque<std::function<void()>> tasks_;
  std::atomic<bool> running_{false};
  std::thread loop_thread_;
};

}  // namespace ritas::bench
