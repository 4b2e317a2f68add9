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

void Node::validate(const std::string& who, const Options& o) {
  const auto fail = [&who](const char* what) {
    throw std::invalid_argument(who + ": " + what);
  };
  if (o.n < 4) fail("n must be >= 4 (n >= 3f+1, f >= 1)");
  if (o.self >= o.n) fail("self must be < n");
  if (o.peers.size() != o.n) fail("peers.size() must equal n");
  if (o.reactor_threads > 64) fail("reactor_threads must be <= 64");
}

Node::Node(std::string who, const Options& opts)
    : who_((validate(who, opts), std::move(who))),
      keys_(KeyChain::deal(opts.master_secret, opts.n, opts.self)),
      seed_(resolve_seed(opts.rng_seed)) {
  net::TcpTransport::Options topts;
  topts.n = opts.n;
  topts.self = opts.self;
  topts.peers = opts.peers;
  topts.authenticate = opts.authenticate;
  topts.min_start_links = opts.min_start_links;
  topts.batch_sends = opts.transport_batch;
  // Decorrelate per-process transport randomness (handshake nonces,
  // backoff jitter) even when every node is configured with the same seed.
  topts.rng_seed = opts.rng_seed == 0
                       ? 0
                       : opts.rng_seed ^ (0x9e3779b97f4a7c15ULL * (opts.self + 1));
  transport_ = std::make_unique<net::TcpTransport>(topts, keys_);
  ReactorPool::Options popts;
  popts.threads = opts.reactor_threads;
  pool_ = std::make_unique<ReactorPool>(popts);
}

Node::~Node() { stop(); }

void Node::serve(GroupId g, std::function<void()> pump) {
  pumps_.emplace_back(g, std::move(pump));
}

void Node::start(Sink sink) {
  if (running_.load()) return;
  // One idle hook per reactor: pump exactly the groups it owns, after
  // every drain batch. Ownership never changes after start.
  for (std::uint32_t r = 0; r < pool_->threads(); ++r) {
    std::vector<std::function<void()>*> owned;
    for (auto& [g, pump] : pumps_) {
      if (pool_->reactor_of(g) == r) owned.push_back(&pump);
    }
    pool_->set_idle_hook(r, [owned = std::move(owned)] {
      for (auto* pump : owned) (*pump)();
    });
  }
  pool_->start();
  transport_->set_sink(std::move(sink));
  try {
    transport_->start();
  } catch (...) {
    pool_->stop();  // the reactors must not outlive a failed start
    throw;
  }
  running_.store(true);
  poll_thread_ = std::thread([this] { poll_loop(); });
}

bool Node::stop() {
  if (!running_.exchange(false)) return false;
  transport_->wakeup();
  if (poll_thread_.joinable()) poll_thread_.join();
  // Poll thread gone ⇒ no new frames enter the rings; drain the reactors
  // before the owner tears down anything they touch.
  pool_->stop();
  transport_->stop();
  return true;
}

void Node::poll_loop() {
  if (!pool_->inline_mode()) {
    // Pipeline mode: this thread owns only the sockets and the handoff.
    while (running_.load()) transport_->poll_once(20);
    return;
  }
  while (running_.load()) {
    transport_->poll_once(20);
    drain_tasks();
  }
  // Final drain so a task racing stop() still runs (and its caller in
  // run() is released).
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
  for (auto& [g, pump] : pumps_) pump();
}

void Node::post(GroupId g, std::function<void()> fn) {
  if (!pool_->inline_mode()) {
    pool_->post(g, std::move(fn));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
  }
  transport_->wakeup();
}

void Node::run(GroupId g, std::function<void()> fn) {
  if (!running_.load()) throw std::logic_error(who_ + " not started");
  std::promise<void> done;
  auto fut = done.get_future();
  // Exceptions must not unwind the owning thread: capture and rethrow in
  // the calling thread instead.
  post(g, [&done, &fn] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  fut.get();
}

}  // namespace ritas
