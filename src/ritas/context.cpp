#include "ritas/context.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"

namespace ritas {

namespace {

/// Rejects inconsistent Options before any member (keychain, transport,
/// stack) is built from them — a wrong membership must never reach the
/// mesh layer.
Context::Options validate(Context::Options o) {
  Node::validate("ritas::Context", o);
  if (o.recv_window == 0) {
    throw std::invalid_argument("ritas::Context: recv_window must be > 0");
  }
  if (o.batch.enabled && (o.batch.max_msgs == 0 || o.batch.max_bytes == 0)) {
    throw std::invalid_argument("ritas::Context: batch limits must be > 0");
  }
  // Unknown or incompatible protocol-variant selections fail here, before
  // any networking exists (the ProtocolStack constructor re-checks, but
  // this path owns the user-facing error).
  validate_variants(o.stack.variants, o.n, o.stack.coin_mode);
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
    : opts_(validate(std::move(opts))),
      node_("ritas::Context", opts_),
      rb_created_(opts_.n, 0),
      eb_created_(opts_.n, 0),
      rb_delivered_(opts_.n, 0),
      eb_delivered_(opts_.n, 0) {
  StackConfig cfg = opts_.stack;
  cfg.n = opts_.n;
  cfg.self = opts_.self;
  cfg.group = 0;
  cfg.ab_batch.enabled = opts_.batch.enabled;
  cfg.ab_batch.max_batch_msgs = opts_.batch.max_msgs;
  cfg.ab_batch.max_batch_bytes = opts_.batch.max_bytes;
  stack_ = std::make_unique<ProtocolStack>(cfg, node_.transport(), node_.keys(),
                                           node_.seed());
  stack_->set_root_resolver(
      [this](const InstanceId& root) { return admit_bcast_root(root); });
  // The session-wide atomic broadcast root exists before the first frame
  // can arrive; rb/eb roots are created on first reference
  // (admit_bcast_root).
  auto ab = std::make_unique<AtomicBroadcast>(
      *stack_, nullptr, InstanceId::root(ProtocolType::kAtomicBroadcast, 0),
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
  // The pump runs on the poll thread at a safe point, so delivered rb/eb
  // roots are freed there.
  node_.serve([this] {
    stack_->pump();
    for (const InstanceId& id : dead_roots_) roots_.erase(id);
    dead_roots_.clear();
  });
}

Context::~Context() { stop(); }

void Context::start() {
  node_.start([this](ProcessId from, Slice frame) {
    stack_->on_packet(from, std::move(frame));
  });
}

void Context::stop() {
  // Joins the poll thread, so nothing touches the stack-owned state
  // (roots_) below.
  if (!node_.stop()) return;
  // Wake any threads blocked in the recv calls.
  rb_rx_.close();
  eb_rx_.close();
  ab_rx_.close();
  roots_.clear();
  dead_roots_.clear();
  ab_ = nullptr;
}

RootVerdict Context::admit_bcast_root(const InstanceId& root) {
  const Component c = root.at(0);
  const bool rb = c.type == ProtocolType::kReliableBroadcast;
  if (!rb && c.type != ProtocolType::kEchoBroadcast) {
    // Consensus roots exist only once the local process calls bc/mvc/vc.
    return RootVerdict::kOutOfContext;
  }
  const std::uint64_t origin = c.seq >> 32;
  if (origin >= opts_.n) return RootVerdict::kDrop;  // no such sender
  const auto o = static_cast<ProcessId>(origin);
  const std::uint64_t k = c.seq & 0xffffffffu;
  std::uint64_t& created = (rb ? rb_created_ : eb_created_)[o];
  const std::uint64_t delivered = (rb ? rb_delivered_ : eb_delivered_)[o];
  // Below the watermark the root was delivered and destroyed: late
  // ECHO/READY stragglers are dropped, like AtomicBroadcast's done_ rule.
  if (k < created) return RootVerdict::kDrop;
  if (k >= delivered + opts_.recv_window) return RootVerdict::kOutOfContext;
  for (; created <= k; ++created) {
    const std::uint64_t j = created;
    const InstanceId id = InstanceId::root(c.type, bcast_seq(o, j));
    auto deliver = [this, type = c.type, o, j](Slice payload) {
      on_bcast_deliver(type, o, j, payload.to_bytes());
    };
    if (rb) {
      roots_.emplace(id, make_rb(*stack_, nullptr, id, o, Attribution::kPayload,
                                 std::move(deliver)));
    } else {
      roots_.emplace(id, std::make_unique<EchoBroadcast>(
                             *stack_, nullptr, id, o, Attribution::kPayload,
                             std::move(deliver)));
    }
  }
  return RootVerdict::kCreated;
}

Protocol& Context::local_bcast_root(ProtocolType type, std::uint64_t k) {
  const InstanceId id = InstanceId::root(type, bcast_seq(opts_.self, k));
  auto it = roots_.find(id);
  if (it == roots_.end() && admit_bcast_root(id) == RootVerdict::kCreated) {
    it = roots_.find(id);
  }
  if (it == roots_.end()) {
    throw std::logic_error(
        std::string(type == ProtocolType::kReliableBroadcast ? "rb_bcast"
                                                             : "eb_bcast") +
        ": sender outran the receive window");
  }
  return *it->second;
}

void Context::on_bcast_deliver(ProtocolType type, ProcessId origin,
                               std::uint64_t k, Bytes payload) {
  std::uint64_t& delivered = (type == ProtocolType::kReliableBroadcast
                                  ? rb_delivered_
                                  : eb_delivered_)[origin];
  const std::uint64_t old_end = delivered + opts_.recv_window;
  if (k + 1 > delivered) delivered = k + 1;
  // Frames parked beyond the old window end may now create their roots.
  for (std::uint64_t j = old_end; j < delivered + opts_.recv_window; ++j) {
    stack_->retry_ooc(InstanceId::root(type, bcast_seq(origin, j)));
  }
  // This instance finished its job; free it at the next safe point (we are
  // currently inside its delivery callback).
  dead_roots_.push_back(InstanceId::root(type, bcast_seq(origin, k)));
  if (type == ProtocolType::kReliableBroadcast) {
    rb_rx_.push(Delivery{origin, std::move(payload)});
  } else {
    eb_rx_.push(Delivery{origin, std::move(payload)});
  }
}

void Context::rb_bcast(Bytes payload) {
  node_.run([this, &payload] {
    auto& rb = static_cast<RbAlgorithm&>(
        local_bcast_root(ProtocolType::kReliableBroadcast, rb_sent_++));
    rb.bcast(std::move(payload));
  });
}

void Context::eb_bcast(Bytes payload) {
  node_.run([this, &payload] {
    auto& eb = static_cast<EchoBroadcast&>(
        local_bcast_root(ProtocolType::kEchoBroadcast, eb_sent_++));
    eb.bcast(std::move(payload));
  });
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

bool Context::bc(bool proposal) {
  Decision<bool> decision;
  node_.run([this, proposal, decide = decision.callback()] {
    const std::uint64_t k = bc_calls_++;
    auto inst = make_bc(*stack_, nullptr,
                        InstanceId::root(ProtocolType::kBinaryConsensus, k),
                        Attribution::kAgreement, decide);
    inst->propose(proposal);
    roots_.emplace(inst->id(), std::move(inst));
  });
  return decision.wait();
}

std::optional<Bytes> Context::mvc(Bytes proposal) {
  Decision<std::optional<Bytes>> decision;
  node_.run([this, &proposal, decide = decision.callback()] {
    const std::uint64_t k = mvc_calls_++;
    auto inst = std::make_unique<MultiValuedConsensus>(
        *stack_, nullptr,
        InstanceId::root(ProtocolType::kMultiValuedConsensus, k),
        Attribution::kAgreement, decide);
    inst->propose(std::move(proposal));
    roots_.emplace(inst->id(), std::move(inst));
  });
  return decision.wait();
}

std::vector<std::optional<Bytes>> Context::vc(Bytes proposal) {
  Decision<VectorConsensus::Vector> decision;
  node_.run([this, &proposal, decide = decision.callback()] {
    const std::uint64_t k = vc_calls_++;
    auto inst = std::make_unique<VectorConsensus>(
        *stack_, nullptr, InstanceId::root(ProtocolType::kVectorConsensus, k),
        Attribution::kAgreement, decide);
    inst->propose(std::move(proposal));
    roots_.emplace(inst->id(), std::move(inst));
  });
  return decision.wait();
}

Metrics Context::metrics() {
  Metrics m;
  node_.run([this, &m] { m = stack_->metrics(); });
  return m;
}

}  // namespace ritas
