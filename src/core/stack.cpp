#include "core/stack.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/log.h"

namespace ritas {

ProtocolStack::ProtocolStack(StackConfig cfg, Transport& transport,
                             const KeyChain& keys, std::uint64_t rng_seed,
                             Adversary* adversary)
    : cfg_(cfg),
      quorums_(cfg.n),
      transport_(transport),
      keys_(keys),
      rng_(rng_seed),
      adversary_(adversary),
      ooc_fifo_(cfg.n),
      ooc_count_(cfg.n, 0) {
  if (cfg_.n < 4) throw std::invalid_argument("ProtocolStack: need n >= 4 (n >= 3f+1, f >= 1)");
  if (cfg_.self >= cfg_.n) throw std::invalid_argument("ProtocolStack: self out of range");
  validate_variants(cfg_.variants, cfg_.n);
  if (tossed_coin(cfg_.variants.bc, cfg_.coin_mode) == CoinMode::kDealt &&
      keys_.group_key().empty()) {
    throw std::invalid_argument(
        "ProtocolStack: the dealt coin needs the dealer's group key, and "
        "this keychain has none (built from external pairwise keys)");
  }
}

ProtocolStack::~ProtocolStack() = default;

void ProtocolStack::on_packet(ProcessId from, Slice frame) {
  if (from >= cfg_.n || from == cfg_.self) {
    ++metrics_.malformed_dropped;
    trace_drop(TraceDrop::kMalformed, from, {});
    return;
  }
  auto msg = Message::decode(frame);
  if (!msg) {
    ++metrics_.malformed_dropped;
    trace_drop(TraceDrop::kMalformed, from, {});
    return;
  }
  if (msg->group != cfg_.group) {
    // A frame for another consensus group. On a shared mesh the GroupMux
    // routes by group and hands only unroutable frames to the lowest
    // group's stack, so reaching here means a Byzantine or misconfigured
    // peer — a counted drop, never a throw.
    ++metrics_.foreign_group_dropped;
    trace_drop(TraceDrop::kForeignGroup, from, msg->path.trace_path());
    return;
  }
  ++metrics_.msgs_received;
  metrics_.payload_bytes_aliased += msg->payload.size();
  if (tracer_ != nullptr) {
    tracer_->record({now_ns(), TraceEventKind::kRecv, msg->tag, from,
                     frame.size(), msg->path.trace_path()});
  }
  dispatch(from, std::move(*msg));
  pump();
}

void ProtocolStack::charge_cpu(std::uint64_t ns) { transport_.charge_cpu(ns); }

void ProtocolStack::note_complete(const InstanceId& id, std::uint64_t spawn_ns) {
  const std::uint64_t now = now_ns();
  const std::uint64_t latency = now >= spawn_ns ? now - spawn_ns : 0;
  metrics_.proto_latency_ns[static_cast<std::size_t>(id.leaf().type) %
                            kTraceProtoSlots]
      .add(latency);
  if (tracer_ != nullptr) {
    tracer_->record({now, TraceEventKind::kComplete, 0, 0xffffffffu, latency,
                     id.trace_path()});
  }
}

void ProtocolStack::note_invalid(const InstanceId& id) {
  ++metrics_.invalid_dropped;
  trace_drop(TraceDrop::kInvalid, 0xffffffffu, id.trace_path());
}

void ProtocolStack::send_message(ProcessId to, const Message& m0) {
  if (to >= cfg_.n) throw std::invalid_argument("send_message: bad destination");
  // Protocols never set the group; the stack stamps every outbound frame
  // with its own (the demux key on a shared mesh).
  Message m = m0;
  m.group = cfg_.group;
  if (to == cfg_.self) {
    self_queue_.push_back(std::move(m));
    return;
  }
  if (adversary_ != nullptr && adversary_->omit_to(to)) return;
  Buffer frame = m.encode();
  ++metrics_.frames_encoded;
  ++metrics_.msgs_sent;
  metrics_.bytes_sent += frame.size();
  if (tracer_ != nullptr) {
    tracer_->record({now_ns(), TraceEventKind::kSend, m.tag, to, frame.size(),
                     m.path.trace_path()});
  }
  transport_.send(to, std::move(frame));
}

void ProtocolStack::broadcast_message(const Message& m0) {
  // Encode exactly once and share the refcounted frame across every peer
  // (the self copy loops back as a Message and never needs a frame at
  // all). Encoding is lazy so a fully-omitting adversary encodes nothing.
  Message m = m0;
  m.group = cfg_.group;
  Buffer frame;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (p == cfg_.self) {
      self_queue_.push_back(m);
      continue;
    }
    if (adversary_ != nullptr && adversary_->omit_to(p)) continue;
    if (frame.empty()) {
      frame = m.encode();
      ++metrics_.frames_encoded;
    }
    ++metrics_.msgs_sent;
    metrics_.bytes_sent += frame.size();
    if (tracer_ != nullptr) {
      tracer_->record({now_ns(), TraceEventKind::kSend, m.tag, p, frame.size(),
                       m.path.trace_path()});
    }
    transport_.send(p, frame);
  }
}

void ProtocolStack::register_instance(Protocol* p) {
  assert(p != nullptr);
  auto [it, inserted] = registry_.emplace(p->id(), p);
  if (!inserted) {
    throw std::logic_error("duplicate protocol instance: " + p->id().to_string());
  }
  if (tracer_ != nullptr) {
    tracer_->record({now_ns(), TraceEventKind::kInstanceSpawn, 0, 0xffffffffu,
                     0, p->id().trace_path()});
  }
  // Drain parked messages for this instance AND for paths below it — the
  // new instance may spawn the children on demand during redispatch.
  if (ooc_total_ > 0) {
    for (const auto& [path, entries] : ooc_) {
      (void)entries;
      if (p->id().is_prefix_of(path)) drain_queue_.push_back(path);
    }
  }
}

void ProtocolStack::unregister_instance(Protocol* p) {
  registry_.erase(p->id());
  if (tracer_ != nullptr) {
    tracer_->record({now_ns(), TraceEventKind::kInstanceDestroy, 0,
                     0xffffffffu, 0, p->id().trace_path()});
  }
  // Paper §3.4: purge out-of-context messages for destroyed instances so
  // they are not kept indefinitely.
  ooc_purge_prefix(p->id());
  std::erase(gc_queue_, p);
}

void ProtocolStack::retry_ooc(const InstanceId& prefix) {
  for (const auto& [path, entries] : ooc_) {
    (void)entries;
    if (prefix.is_prefix_of(path)) drain_queue_.push_back(path);
  }
}

void ProtocolStack::defer_gc(Protocol* p) {
  if (std::find(gc_queue_.begin(), gc_queue_.end(), p) == gc_queue_.end()) {
    gc_queue_.push_back(p);
  }
}

void ProtocolStack::pump() {
  if (pumping_) return;
  pumping_ = true;
  while (!self_queue_.empty() || !drain_queue_.empty() || !gc_queue_.empty()) {
    if (!self_queue_.empty()) {
      Message m = std::move(self_queue_.front());
      self_queue_.pop_front();
      dispatch(cfg_.self, std::move(m));
      continue;
    }
    if (!drain_queue_.empty()) {
      InstanceId path = std::move(drain_queue_.front());
      drain_queue_.pop_front();
      auto it = ooc_.find(path);
      if (it == ooc_.end()) continue;
      std::vector<OocEntry> entries = std::move(it->second);
      ooc_.erase(it);
      for (auto& e : entries) {
        assert(ooc_count_[e.from] > 0);
        --ooc_count_[e.from];
        --ooc_total_;
        ++metrics_.ooc_drained;
        if (tracer_ != nullptr) {
          tracer_->record({now_ns(), TraceEventKind::kOocDrain, 0, e.from, 0,
                           e.msg.path.trace_path()});
        }
        dispatch(e.from, std::move(e.msg));
      }
      continue;
    }
    Protocol* p = gc_queue_.front();
    gc_queue_.pop_front();
    p->collect_garbage();
  }
  pumping_ = false;
}

void ProtocolStack::dispatch(ProcessId from, Message m) {
  bool drop = false;
  Protocol* target = resolve(m.path, drop);
  if (target != nullptr) {
    target->on_message(from, m.tag, m.payload);
    return;
  }
  if (drop) {
    ++metrics_.unroutable_dropped;
    trace_drop(TraceDrop::kUnroutable, from, m.path.trace_path());
    return;
  }
  if (from == cfg_.self) {
    // Local loopback to an instance we have not created is a logic error in
    // a correct process (we never send before creating); drop loudly.
    LOG_WARN("self message to unknown instance %s", m.path.to_string().c_str());
    ++metrics_.unroutable_dropped;
    trace_drop(TraceDrop::kUnroutable, from, m.path.trace_path());
    return;
  }
  ooc_store(from, std::move(m));
}

Protocol* ProtocolStack::resolve(const InstanceId& path, bool& drop) {
  drop = false;
  if (auto it = registry_.find(path); it != registry_.end()) return it->second;

  // Longest registered proper prefix, then spawn-on-demand down the chain.
  Protocol* cur = nullptr;
  for (std::size_t d = path.depth() - 1; d >= 1; --d) {
    if (auto it = registry_.find(path.prefix(d)); it != registry_.end()) {
      cur = it->second;
      break;
    }
    if (d == 1) break;
  }
  if (cur == nullptr) return nullptr;  // root missing: out of context

  while (cur->id().depth() < path.depth()) {
    const Component next = path.at(cur->id().depth());
    Protocol* child = cur->find_child(next);
    if (child == nullptr) {
      child = cur->spawn_child(next, drop);
    }
    if (child == nullptr) return nullptr;  // OOC or drop per `drop`
    cur = child;
  }
  return cur;
}

void ProtocolStack::ooc_store(ProcessId from, Message m) {
  auto& fifo = ooc_fifo_[from];
  while (ooc_count_[from] >= cfg_.ooc_per_sender && !fifo.empty()) {
    auto [seq, path] = fifo.front();
    fifo.pop_front();
    auto it = ooc_.find(path);
    if (it == ooc_.end()) continue;  // stale fifo entry (drained or purged)
    auto& vec = it->second;
    auto ve = std::find_if(vec.begin(), vec.end(),
                           [&](const OocEntry& e) { return e.seq == seq; });
    if (ve == vec.end()) continue;  // stale
    vec.erase(ve);
    if (vec.empty()) ooc_.erase(it);
    --ooc_count_[from];
    --ooc_total_;
    ++metrics_.ooc_evicted;
    if (tracer_ != nullptr) {
      tracer_->record({now_ns(), TraceEventKind::kOocEvict, 0, from, 0,
                       path.trace_path()});
    }
    LOG_WARN("ooc quota: evicted message from p%u", from);
  }
  if (ooc_count_[from] >= cfg_.ooc_per_sender) return;  // quota 0 corner

  const std::uint64_t seq = ++ooc_seq_;
  if (tracer_ != nullptr) {
    tracer_->record({now_ns(), TraceEventKind::kOocStore, 0, from, 0,
                     m.path.trace_path()});
  }
  fifo.emplace_back(seq, m.path);
  ooc_[m.path].push_back(OocEntry{from, std::move(m), seq});
  ++ooc_count_[from];
  ++ooc_total_;
  ++metrics_.ooc_stored;

  // Drains leave stale pairs behind in the FIFO; compact when they
  // dominate so store/drain churn cannot grow the deque without bound.
  if (fifo.size() > 2 * ooc_count_[from] + 64) {
    std::deque<std::pair<std::uint64_t, InstanceId>> live;
    for (const auto& [s, path] : fifo) {
      auto it = ooc_.find(path);
      if (it == ooc_.end()) continue;
      for (const auto& e : it->second) {
        if (e.seq == s) {
          live.emplace_back(s, path);
          break;
        }
      }
    }
    fifo = std::move(live);
  }
}

void ProtocolStack::ooc_purge_prefix(const InstanceId& prefix) {
  for (auto it = ooc_.begin(); it != ooc_.end();) {
    if (prefix.is_prefix_of(it->first)) {
      for (const auto& e : it->second) {
        assert(ooc_count_[e.from] > 0);
        --ooc_count_[e.from];
        --ooc_total_;
      }
      it = ooc_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ritas
