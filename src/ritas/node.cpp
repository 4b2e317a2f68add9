#include "ritas/node.h"

#include <chrono>
#include <future>
#include <random>
#include <stdexcept>

namespace ritas {

namespace {

std::uint64_t resolve_seed(std::uint64_t seed) {
  if (seed != 0) return seed;
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

void Node::validate(const std::string& who, const Options& o,
                    std::uint32_t groups) {
  const auto fail = [&who](const char* what) {
    throw std::invalid_argument(who + ": " + what);
  };
  if (o.n < 4) fail("n must be >= 4 (n >= 3f+1, f >= 1)");
  if (o.self >= o.n) fail("self must be < n");
  if (o.peers.size() != o.n) fail("peers.size() must equal n");
  if (groups == 0) fail("groups must be > 0");
  const AbBatchConfig& batch = o.stack.ab_batch;
  if (batch.enabled &&
      (batch.max_batch_msgs == 0 || batch.max_batch_bytes == 0)) {
    fail("batch limits must be > 0");
  }
  // Unknown or incompatible protocol-variant selections fail here, before
  // any networking exists (the ProtocolStack constructor re-checks, but
  // this path owns the user-facing error).
  validate_variants(o.stack.variants, o.n);
}

Node::Node(std::string who, const Options& opts, std::uint32_t groups)
    : who_((validate(who, opts, groups), std::move(who))),
      keys_(KeyChain::deal(opts.master_secret, opts.n, opts.self)),
      seed_(resolve_seed(opts.rng_seed)) {
  net::TcpTransport::Options topts;
  topts.n = opts.n;
  topts.self = opts.self;
  topts.peers = opts.peers;
  topts.min_start_links = opts.min_start_links;
  // Decorrelate per-process transport randomness (handshake nonces,
  // backoff jitter) even when every node is configured with the same seed.
  topts.rng_seed = opts.rng_seed == 0
                       ? 0
                       : opts.rng_seed ^ (0x9e3779b97f4a7c15ULL * (opts.self + 1));
  transport_ = std::make_unique<net::TcpTransport>(topts, keys_);
  stacks_.reserve(groups);
  for (GroupId g = 0; g < groups; ++g) {
    StackConfig cfg = opts.stack;
    cfg.n = opts.n;
    cfg.self = opts.self;
    cfg.group = g;
    stacks_.push_back(std::make_unique<ProtocolStack>(
        cfg, *transport_, keys_, stack_seed(seed_, opts.self, g)));
    mux_.attach(g, *stacks_[g]);
  }
  transport_->set_sink([this](ProcessId from, Slice frame) {
    mux_.on_packet(from, std::move(frame));
  });
}

Node::~Node() { stop(); }

void Node::start() {
  std::unique_lock<std::mutex> lock(tasks_mutex_);
  if (lane_ == Lane::kIdle && !poll_thread_.joinable()) {
    // Dial every lower id and send each HELLO, so peers answer while the
    // thread starts; its creation orders this poll before the thread's.
    transport_->poll_once(0);
    poll_thread_ = std::thread([this] { poll_loop(); });
  }
  const std::chrono::milliseconds budget(transport_->connect_timeout_ms());
  if (!lane_cv_.wait_for(lock, budget,
                         [this] { return lane_ != Lane::kIdle; })) {
    const std::runtime_error timeout = transport_->setup_timeout();
    lock.unlock();
    stop();
    throw timeout;
  }
  if (lane_ == Lane::kClosed) throw std::runtime_error(who_ + ": stopped");
}

bool Node::stop() {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    const bool first = lane_.exchange(Lane::kClosed) != Lane::kClosed;
    if (!first || !poll_thread_.joinable()) return false;
  }
  transport_->wakeup();
  poll_thread_.join();
  lane_cv_.notify_all();  // a start() still waiting throws
  transport_->stop();
  return true;
}

void Node::poll_loop() {
  while (lane_ != Lane::kClosed) {
    transport_->poll_once(20);
    if (lane_ == Lane::kIdle && transport_->started()) {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      if (lane_ == Lane::kIdle) lane_ = Lane::kOpen;  // else stop() closed it
      lane_cv_.notify_all();
    }
    drain_tasks();
  }
  // Every task post() accepted before stop() closed the lane runs here.
  drain_tasks();
}

void Node::drain_tasks() {
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks.swap(tasks_);
  }
  for (auto& t : tasks) t();
  // Safe point: nothing is on a protocol call stack here.
  for (auto& stack : stacks_) stack->pump();
}

bool Node::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    if (lane_ != Lane::kOpen) return false;
    tasks_.push_back(std::move(fn));
  }
  transport_->wakeup();
  return true;
}

Metrics Node::metrics() {
  Metrics m;
  run([this, &m] {
    for (const auto& stack : stacks_) m += stack->metrics();
  });
  return m;
}

void Node::run(std::function<void()> fn) {
  std::promise<void> done;
  auto fut = done.get_future();
  // Exceptions must not unwind the poll thread: capture and rethrow in
  // the calling thread instead.
  const bool posted = post([&done, &fn] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (!posted) throw std::logic_error(who_ + " not running");
  fut.get();
}

}  // namespace ritas
