#include "ritas/context.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "core/binary_consensus.h"
#include "core/multivalued_consensus.h"
#include "core/vector_consensus.h"

namespace ritas {

namespace {

/// Rejects a zero receive window before any member (keychain, transport,
/// stack) is built; Node::validate checks the rest.
Context::Options validate(Context::Options o) {
  if (o.recv_window == 0) {
    throw std::invalid_argument("ritas::Context: recv_window must be > 0");
  }
  return o;
}

/// Hands a consensus decision from the poll thread to the blocked caller.
/// callback() is the consensus root's decide callback; once its last copy
/// dies undecided (stop() destroys the roots) the slot is abandoned, and
/// wait() throws ShutdownError on the caller's own thread — no exception
/// object crosses threads.
template <typename T>
class Decision {
 public:
  std::function<void(T)> callback() {
    auto guard = std::make_shared<Guard>(state_);
    return [guard](T v) { guard->state->decide(std::move(v)); };
  }

  T wait() {
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock,
                    [this] { return state_->value || state_->abandoned; });
    if (!state_->value) throw ShutdownError();
    return std::move(*state_->value);
  }

 private:
  struct State {
    std::mutex m;
    std::condition_variable cv;
    std::optional<T> value;
    bool abandoned = false;

    void decide(T v) {
      {
        std::lock_guard<std::mutex> lock(m);
        value.emplace(std::move(v));
      }
      cv.notify_all();
    }
    void abandon() {
      {
        std::lock_guard<std::mutex> lock(m);
        abandoned = true;
      }
      cv.notify_all();
    }
  };
  struct Guard {
    explicit Guard(std::shared_ptr<State> s) : state(std::move(s)) {}
    ~Guard() { state->abandon(); }
    std::shared_ptr<State> state;
  };

  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace

Context::Context(Options opts)
    : opts_(validate(std::move(opts))), node_("ritas::Context", opts_) {
  ProtocolStack& stack = node_.stack();
  // The session-wide roots exist before the first frame can arrive; rb/eb
  // broadcasts are their service root's children, created on first
  // reference.
  auto ab = std::make_unique<AtomicBroadcast>(
      stack, nullptr, InstanceId::root(ProtocolType::kAtomicBroadcast, 0),
      [this](ProcessId origin, std::uint64_t rbid, Slice payload) {
        // App-boundary copy: queued deliveries must not pin whole batch
        // frames for as long as the application keeps the payload.
        AbDelivery d{origin, rbid, payload.to_bytes()};
        if (ab_sub_) {
          ab_sub_(std::move(d));  // poll thread; subscriber must not block
        } else {
          ab_rx_.push(std::move(d));
        }
      });
  ab_ = ab.get();
  roots_.emplace(ab_->id(), std::move(ab));
  auto service = [&](ProtocolType type, BlockingQueue<Delivery>& rx) {
    auto s = std::make_unique<BroadcastService>(
        stack, type, opts_.recv_window,
        [&rx](ProcessId o, Slice p) { rx.push(Delivery{o, p.to_bytes()}); });
    BroadcastService* raw = s.get();
    roots_.emplace(raw->id(), std::move(s));
    return raw;
  };
  rb_ = service(ProtocolType::kReliableBroadcast, rb_rx_);
  eb_ = service(ProtocolType::kEchoBroadcast, eb_rx_);
}

Context::~Context() { stop(); }

void Context::start() { node_.start(); }

void Context::stop() {
  // Joins the poll thread, so nothing touches the stack-owned state
  // (roots_) below; false means there was no poll thread to stop.
  const bool was_running = node_.stop();
  // Wake any threads blocked in the recv calls.
  rb_rx_.close();
  eb_rx_.close();
  ab_rx_.close();
  if (!was_running) return;
  roots_.clear();
  ab_ = nullptr;
  rb_ = eb_ = nullptr;
}

void Context::rb_bcast(Bytes payload) {
  node_.run([this, &payload] { rb_->bcast(std::move(payload)); });
}

void Context::eb_bcast(Bytes payload) {
  node_.run([this, &payload] { eb_->bcast(std::move(payload)); });
}

Context::Delivery Context::rb_recv() { return rb_rx_.pop(); }
std::optional<Context::Delivery> Context::rb_try_recv() { return rb_rx_.try_pop(); }
std::optional<Context::Delivery> Context::rb_recv_for(
    std::chrono::milliseconds timeout) {
  return rb_rx_.pop_for(timeout);
}
Context::Delivery Context::eb_recv() { return eb_rx_.pop(); }
std::optional<Context::Delivery> Context::eb_try_recv() { return eb_rx_.try_pop(); }
std::optional<Context::Delivery> Context::eb_recv_for(
    std::chrono::milliseconds timeout) {
  return eb_rx_.pop_for(timeout);
}

std::uint64_t Context::ab_bcast(Bytes payload) {
  std::uint64_t rbid = 0;
  node_.run([this, &payload, &rbid] { rbid = ab_->bcast(std::move(payload)); });
  return rbid;
}

Context::AbDelivery Context::ab_recv() { return ab_rx_.pop(); }
std::optional<Context::AbDelivery> Context::ab_try_recv() {
  return ab_rx_.try_pop();
}
std::optional<Context::AbDelivery> Context::ab_recv_for(
    std::chrono::milliseconds timeout) {
  return ab_rx_.pop_for(timeout);
}

void Context::ab_flush() {
  node_.run([this] { ab_->flush(); });
}

void Context::ab_subscribe(AbSubscriber fn) {
  if (!node_.running()) {
    ab_sub_ = std::move(fn);  // no poll thread yet; plain write is safe
    return;
  }
  node_.run([this, f = std::move(fn)]() mutable { ab_sub_ = std::move(f); });
}

template <typename Root, typename T, typename Proposal>
T Context::consensus(ProtocolType type, Proposal proposal) {
  Decision<T> decision;
  node_.run([this, type, &proposal, decide = decision.callback()] {
    const InstanceId id = InstanceId::root(type, consensus_calls_[type]++);
    std::unique_ptr<Root> root;
    if constexpr (std::is_same_v<Root, BcAlgorithm>) {
      root = make_bc(node_.stack(), nullptr, id, Attribution::kAgreement,
                     decide);
    } else {
      root = std::make_unique<Root>(node_.stack(), nullptr, id,
                                    Attribution::kAgreement, decide);
    }
    root->propose(std::move(proposal));
    roots_.emplace(id, std::move(root));
  });
  return decision.wait();
}

bool Context::bc(bool proposal) {
  return consensus<BcAlgorithm, bool>(ProtocolType::kBinaryConsensus,
                                      proposal);
}

std::optional<Bytes> Context::mvc(Bytes proposal) {
  return consensus<MultiValuedConsensus, std::optional<Bytes>>(
      ProtocolType::kMultiValuedConsensus, std::move(proposal));
}

std::vector<std::optional<Bytes>> Context::vc(Bytes proposal) {
  return consensus<VectorConsensus, VectorConsensus::Vector>(
      ProtocolType::kVectorConsensus, std::move(proposal));
}

}  // namespace ritas
