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
}

Node::~Node() { stop(); }

void Node::serve(std::function<void()> pump) {
  pumps_.push_back(std::move(pump));
}

void Node::start(Sink sink) {
  if (running_.load()) return;
  transport_->set_sink(std::move(sink));
  transport_->start();
  running_.store(true);
  poll_thread_ = std::thread([this] { poll_loop(); });
  // Return once the poll thread has run a cycle: links still handshaking
  // when the threshold was met usually complete in it, so start() tends to
  // return with every live link up.
  run([] {});
}

bool Node::stop() {
  if (!running_.exchange(false)) return false;
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
  for (auto& pump : pumps_) pump();
}

void Node::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
  }
  transport_->wakeup();
}

void Node::run(std::function<void()> fn) {
  if (!running_.load()) throw std::logic_error(who_ + " not started");
  std::promise<void> done;
  auto fut = done.get_future();
  // Exceptions must not unwind the poll thread: capture and rethrow in
  // the calling thread instead.
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

}  // namespace ritas
