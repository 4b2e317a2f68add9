#include "nodes.h"

#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>

#include "ritas/context.h"
#include "ritas/sharded_node.h"
#include "smr/kv_machine.h"

namespace ritas::bench {

namespace {

constexpr const char* kSecret = "ritas-bench";

std::uint64_t read_key(ByteView payload) {
  std::uint64_t key = ~std::uint64_t{0};
  if (payload.size() >= sizeof key) std::memcpy(&key, payload.data(), sizeof key);
  return key;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Counters that only grow; the window reports their growth.
net::TcpTransport::Stats stats_delta(const net::TcpTransport::Stats& a,
                                     const net::TcpTransport::Stats& b) {
  net::TcpTransport::Stats d;
  d.frames_sent = a.frames_sent - b.frames_sent;
  d.frames_received = a.frames_received - b.frames_received;
  d.frames_retransmitted = a.frames_retransmitted - b.frames_retransmitted;
  d.bytes_sent = a.bytes_sent - b.bytes_sent;
  d.mac_failures = a.mac_failures - b.mac_failures;
  d.queue_drops = a.queue_drops - b.queue_drops;
  d.link_reconnects = a.link_reconnects - b.link_reconnects;
  d.sendmsg_calls = a.sendmsg_calls - b.sendmsg_calls;
  d.bytes_to_kernel = a.bytes_to_kernel - b.bytes_to_kernel;
  return d;
}

class ContextNode final : public BenchNode {
 public:
  explicit ContextNode(const NodeConfig& cfg) : ctx_(options(cfg)) {
    ctx_.ab_subscribe([fn = cfg.on_deliver](Context::AbDelivery d) {
      fn(0, read_key(d.payload));
    });
  }
  void start() override { ctx_.start(); }
  void stop() override { ctx_.stop(); }
  void submit(std::uint64_t, Bytes op) override { ctx_.ab_bcast(std::move(op)); }
  std::vector<LinkState> link_states() override { return ctx_.link_states(); }
  net::TcpTransport::Stats transport_stats() const override {
    return ctx_.transport_stats();
  }
  std::optional<Metrics> metrics() override { return ctx_.metrics(); }

 private:
  static Context::Options options(const NodeConfig& cfg) {
    Context::Options o;
    o.n = cfg.n;
    o.self = cfg.self;
    o.peers = cfg.peers;
    o.master_secret = to_bytes(kSecret);
    o.rng_seed = cfg.seed;
    return o;
  }
  Context ctx_;
};

class ShardNode final : public BenchNode {
 public:
  explicit ShardNode(const NodeConfig& cfg) : self_(cfg.self), node_(options(cfg)) {
    // Replaces ShardedNode's own applied-count hook, which the benchmark
    // does not use.
    node_.service().set_on_applied(
        [fn = cfg.on_deliver](smr::ShardId shard, std::uint64_t client,
                              std::uint64_t seq, const Bytes&) {
          fn(shard, op_key(static_cast<std::uint32_t>(client), seq));
        });
  }
  void start() override { node_.start(); }
  void stop() override { node_.stop(); }
  void submit(std::uint64_t seq, Bytes op) override { node_.submit(self_, seq, op); }
  std::vector<LinkState> link_states() override {
    return node_.transport().link_states();
  }
  net::TcpTransport::Stats transport_stats() const override {
    return node_.transport_stats();
  }
  std::vector<Bytes> snapshots() override {
    std::vector<Bytes> out;
    auto& svc = node_.service();
    for (smr::ShardId s = 0; s < svc.shards(); ++s) out.push_back(svc.snapshot(s));
    return out;
  }

 private:
  static ShardedNode::Options options(const NodeConfig& cfg) {
    ShardedNode::Options o;
    o.n = cfg.n;
    o.self = cfg.self;
    o.peers = cfg.peers;
    o.master_secret = to_bytes(kSecret);
    o.groups = cfg.groups;
    o.rng_seed = cfg.seed;
    return o;
  }
  ProcessId self_;
  ShardedNode node_;
};

/// KvMachine with each apply timed as a span.
class TimedKvMachine final : public smr::StateMachine {
 public:
  explicit TimedKvMachine(SpanRecorder& rec) : rec_(rec) {}
  Bytes apply(ByteView command) override {
    rec_.begin(Span::kApply);
    Bytes result = kv_.apply(command);
    rec_.end();
    return result;
  }
  Bytes snapshot() const override { return kv_.snapshot(); }

 private:
  SpanRecorder& rec_;
  smr::KvMachine kv_;
};

}  // namespace

std::unique_ptr<BenchNode> make_context_node(const NodeConfig& cfg) {
  return std::make_unique<ContextNode>(cfg);
}
std::unique_ptr<BenchNode> make_shard_node(const NodeConfig& cfg) {
  return std::make_unique<ShardNode>(cfg);
}

const char* span_name(Span s) {
  switch (s) {
    case Span::kPoll: return "net.poll";
    case Span::kOnPacket: return "core.on_packet";
    case Span::kSend: return "net.send";
    case Span::kLoop: return "ritas.loop";
    case Span::kApply: return "smr.apply";
  }
  return "?";
}

// --- TracedNode --------------------------------------------------------------
//
// Wiring follows Context (one group) and ShardedNode (G groups, single-thread
// path) line for line where they agree: same transport options, the same
// per-(process, group) stack seeds as ShardedNode, the same AB root id, and
// the same loop — poll, run posted tasks, pump.

TracedNode::TracedNode(const NodeConfig& cfg)
    : cfg_(cfg),
      keys_(KeyChain::deal(to_bytes(kSecret), cfg.n, cfg.self)),
      transport_([&] {
        net::TcpTransport::Options t;
        t.n = cfg.n;
        t.self = cfg.self;
        t.peers = cfg.peers;
        t.rng_seed = cfg.seed ^ (0x9e3779b97f4a7c15ULL * (cfg.self + 1));
        return std::make_unique<net::TcpTransport>(t, keys_);
      }()),
      rec_(cfg.seed + cfg.self),
      shim_(*transport_, rec_) {
  std::uint64_t s = cfg.seed;
  const std::uint64_t base = splitmix64(s);
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  const bool kv = cfg.groups > 1;
  if (kv) {
    smr::ShardedService::Config sc;
    sc.shards = cfg.groups;
    sc.key_of = [](ByteView op) { return smr::kv_key_of(op); };
    service_ = std::make_unique<smr::ShardedService>(
        sc, [this](smr::ShardId) -> std::unique_ptr<smr::StateMachine> {
          return std::make_unique<TimedKvMachine>(rec_);
        });
    service_->set_on_applied([fn = cfg.on_deliver](smr::ShardId shard,
                                                   std::uint64_t client,
                                                   std::uint64_t seq, const Bytes&) {
      fn(shard, op_key(static_cast<std::uint32_t>(client), seq));
    });
    service_->bind_submitter([this](smr::ShardId shard, const Bytes& command) {
      post([this, shard, command] {
        abs_[shard]->bcast(Bytes(command));
        stacks_[shard]->pump();
      });
    });
  }
  for (GroupId g = 0; g < cfg.groups; ++g) {
    StackConfig sc;
    sc.n = cfg.n;
    sc.self = cfg.self;
    sc.group = g;
    const std::uint64_t seed =
        kv ? base ^ (0x1000 + cfg.self) ^
                 (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL)
           : cfg.seed;
    stacks_.push_back(std::make_unique<ProtocolStack>(sc, shim_, keys_, seed));
    mux_.attach(g, *stacks_[g]);
    AtomicBroadcast::DeliverFn deliver;
    if (kv) {
      deliver = [this, g](ProcessId, std::uint64_t, Slice payload) {
        service_->on_delivered(g, payload.view());
      };
    } else {
      deliver = [fn = cfg.on_deliver](ProcessId, std::uint64_t, Slice payload) {
        // Context's app-boundary copy, kept so the traced CPU matches it.
        const Bytes copy = payload.to_bytes();
        fn(0, read_key(copy));
      };
    }
    abs_.push_back(std::make_unique<AtomicBroadcast>(*stacks_[g], nullptr, ab_root,
                                                     std::move(deliver)));
  }
}

TracedNode::~TracedNode() { stop(); }

void TracedNode::start() {
  if (running_.load()) return;
  if (stacks_.size() == 1) {
    transport_->set_sink([this](ProcessId from, Slice frame) {
      rec_.begin(Span::kOnPacket);
      stacks_[0]->on_packet(from, std::move(frame));
      rec_.end();
    });
  } else {
    transport_->set_sink([this](ProcessId from, Slice frame) {
      rec_.begin(Span::kOnPacket);
      mux_.on_packet(from, std::move(frame));
      rec_.end();
    });
  }
  transport_->start();
  running_.store(true);
  loop_thread_ = std::thread([this] { loop(); });
}

void TracedNode::stop() {
  if (!running_.exchange(false)) return;
  transport_->wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  transport_->stop();
}

void TracedNode::pump_all() {
  for (auto& s : stacks_) s->pump();
}

void TracedNode::loop() {
  while (running_.load()) {
    if (record_pending_.load(std::memory_order_acquire)) switch_recording();
    rec_.begin(Span::kPoll);
    transport_->poll_once(20);
    rec_.end();
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      tasks.swap(tasks_);
    }
    if (tasks.empty() && stacks_.size() == 1) continue;
    rec_.begin(Span::kLoop);
    for (auto& t : tasks) t();
    // ShardedNode pumps every stack on every iteration; Context pumps
    // after each task, which every task posted here does itself.
    if (stacks_.size() > 1) pump_all();
    rec_.end();
  }
}

void TracedNode::switch_recording() {
  std::lock_guard<std::mutex> lock(record_mutex_);
  if (record_want_ == 1 && record_have_ != 1) {
    for (auto& s : stacks_) {
      before_window_ += s->metrics();
      s->metrics() = Metrics{};
    }
    transport_at_open_ = transport_->stats();
    cpu_at_open_ = SpanRecorder::thread_cpu_ns();
    wall_at_open_ = steady_ns();
    rec_.reset();
    rec_.set_on(true);
  } else if (record_want_ == 2 && record_have_ == 1) {
    rec_.set_on(false);
    window_.thread_cpu_ns = SpanRecorder::thread_cpu_ns() - cpu_at_open_;
    window_.wall_ns = steady_ns() - wall_at_open_;
    window_.spans = rec_.stats();
    window_.frames = rec_.take_frames();
    window_.metrics = Metrics{};
    for (auto& s : stacks_) window_.metrics += s->metrics();
    window_.transport = stats_delta(transport_->stats(), transport_at_open_);
  }
  record_have_ = record_want_;
  record_pending_.store(false, std::memory_order_release);
  record_cv_.notify_all();
}

void TracedNode::record(bool on) {
  std::unique_lock<std::mutex> lock(record_mutex_);
  record_want_ = on ? 1 : 2;
  record_pending_.store(true, std::memory_order_release);
  transport_->wakeup();
  if (!record_cv_.wait_for(lock, std::chrono::seconds(5),
                           [this] { return record_have_ == record_want_; })) {
    throw std::runtime_error("traced node: loop thread did not switch recording");
  }
}

void TracedNode::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
  }
  transport_->wakeup();
}

void TracedNode::run_on_loop(std::function<void()> fn) {
  if (!running_.load()) throw std::logic_error("traced node not started");
  std::promise<void> done;
  auto fut = done.get_future();
  post([&done, &fn] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  fut.get();
}

void TracedNode::submit(std::uint64_t seq, Bytes op) {
  if (service_) {
    service_->submit(cfg_.self, seq, op);
    return;
  }
  // Blocking round trip to the loop, as Context::ab_bcast does.
  run_on_loop([this, &op] {
    abs_[0]->bcast(std::move(op));
    stacks_[0]->pump();
  });
}

std::optional<Metrics> TracedNode::metrics() {
  Metrics m;
  run_on_loop([this, &m] {
    m = before_window_;
    for (auto& s : stacks_) m += s->metrics();
  });
  return m;
}

std::vector<Bytes> TracedNode::snapshots() {
  std::vector<Bytes> out;
  if (!service_) return out;
  for (smr::ShardId s = 0; s < service_->shards(); ++s) {
    out.push_back(service_->snapshot(s));
  }
  return out;
}

}  // namespace ritas::bench
