#include "ritas/node.h"

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
  if (running_.load()) return;
  transport_->start();  // throws on timeout, and once stop() has run
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    if (lane_ == Lane::kClosed) {  // stop() came after the mesh was up
      transport_->stop();
      throw std::runtime_error(who_ + ": stopped during start");
    }
    lane_ = Lane::kOpen;
    running_.store(true);
    poll_thread_ = std::thread([this] { poll_loop(); });
  }
  // Return once the poll thread has run a cycle: links still handshaking
  // when the threshold was met usually complete in it, so start() tends to
  // return with every live link up. This wait stays although it costs a
  // thread hand-off: without it start() returns before the last link is
  // up, and a caller that then waits for the full mesh pays a longer poll
  // tick instead (EXPERIMENTS.md "Mesh set-up anatomy": set-up was slower
  // on two of three benchmark workloads with it removed).
  run([] {});
}

bool Node::stop() {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    if (!running_.exchange(false)) {
      // Not running: a start() still dialing stops and throws, on its own
      // thread, and so does any later one.
      lane_ = Lane::kClosed;
      transport_->request_stop();
      return false;
    }
  }
  transport_->wakeup();
  if (poll_thread_.joinable()) poll_thread_.join();
  transport_->stop();
  return true;
}

void Node::poll_loop() {
  while (running_.load()) {
    transport_->poll_once(20);
    drain_tasks();
  }
  // Close the lane, then drain it: every task post() accepted still runs
  // (and its caller in run() is released), and any later post() refuses
  // instead of queueing a task no thread would run.
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    lane_ = Lane::kClosed;
  }
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
