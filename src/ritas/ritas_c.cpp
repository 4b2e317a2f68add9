#include "ritas/ritas_c.h"

#include <cstring>

#include "ritas/ritas_c_context.h"

namespace {

bool started(const ritas_t* r) { return r != nullptr && r->ctx != nullptr; }

long copy_out(const ritas::Bytes& payload, uint8_t* buf, size_t cap) {
  if (payload.size() > cap) return RITAS_ETOOBIG;
  if (!payload.empty()) std::memcpy(buf, payload.data(), payload.size());
  return static_cast<long>(payload.size());
}

/// Runs one service call of a started session and maps what it throws to
/// the C codes: a wait that ritas_stop cut short is RITAS_ESHUTDOWN, a
/// call the session refuses (after the stop, beyond the rb window)
/// RITAS_ESTATE, anything else RITAS_EINTERNAL.
template <typename F>
auto guarded(F&& call) noexcept -> decltype(call()) {
  try {
    return call();
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

/// The receive calls' one routine: takes the service's stashed delivery,
/// or pops one with `pop` (nullopt: none in time, RITAS_EAGAIN), and
/// copies it out. One that does not fit stays stashed (RITAS_ETOOBIG).
template <typename D, typename Pop>
long receive(ritas_t* r, ritas_t::Recv<D> ritas_t::*service,
             uint32_t* origin, uint8_t* buf, size_t cap, Pop pop) {
  if (!started(r) || (buf == nullptr && cap > 0)) return RITAS_EINVAL;
  ritas_t::Recv<D>& slot = r->*service;
  return guarded([&]() -> long {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (!slot.stash) slot.stash = pop(*r->ctx);
    if (!slot.stash) return RITAS_EAGAIN;
    const long rc = copy_out(slot.stash->payload, buf, cap);
    if (rc < 0) return rc;
    if (origin != nullptr) *origin = slot.stash->origin;
    slot.stash.reset();
    return rc;
  });
}

}  // namespace

extern "C" {

ritas_t* ritas_init(uint32_t n, uint32_t self, const uint8_t* secret,
                    size_t secret_len) {
  if (n < 4 || self >= n || (secret == nullptr && secret_len > 0)) return nullptr;
  try {
    auto* r = new ritas_t;
    r->opts.n = n;
    r->opts.self = self;
    r->opts.peers.resize(n);
    r->opts.master_secret.assign(secret, secret + secret_len);
    r->added.assign(n, false);
    return r;
  } catch (...) {
    return nullptr;
  }
}

int ritas_proc_add_ipv4(ritas_t* r, uint32_t id, const char* host,
                        uint16_t port) {
  if (r == nullptr || host == nullptr || id >= r->opts.n) return RITAS_EINVAL;
  if (started(r)) return RITAS_ESTATE;
  r->opts.peers[id] = ritas::net::PeerAddr{host, port};
  r->added[id] = true;
  return RITAS_OK;
}

int ritas_set_opt(ritas_t* r, int opt, long value) {
  if (r == nullptr) return RITAS_EINVAL;
  if (started(r)) return RITAS_ESTATE;
  switch (opt) {
    case RITAS_OPT_BATCH_ENABLED:
      if (value != 0 && value != 1) return RITAS_EINVAL;
      r->opts.stack.ab_batch.enabled = value != 0;
      return RITAS_OK;
    case RITAS_OPT_BATCH_MAX_MSGS:
      if (value <= 0 || value > 0xffffffffL) return RITAS_EINVAL;
      r->opts.stack.ab_batch.max_batch_msgs = static_cast<uint32_t>(value);
      return RITAS_OK;
    case RITAS_OPT_BATCH_MAX_BYTES:
      if (value <= 0 || value > 0xffffffffL) return RITAS_EINVAL;
      r->opts.stack.ab_batch.max_batch_bytes = static_cast<uint32_t>(value);
      return RITAS_OK;
    case RITAS_OPT_RECV_WINDOW:
      if (value <= 0 || value > 0xffffffffL) return RITAS_EINVAL;
      r->opts.recv_window = static_cast<uint32_t>(value);
      return RITAS_OK;
    case RITAS_OPT_MIN_START_LINKS:
      if (value < 0 || value >= r->opts.n) return RITAS_EINVAL;
      r->opts.min_start_links = static_cast<uint32_t>(value);
      return RITAS_OK;
    case RITAS_OPT_RB_VARIANT:
      if (value != 0 && value != 1) return RITAS_EINVAL;
      r->opts.stack.variants.rb = static_cast<ritas::RbVariant>(value);
      return RITAS_OK;
    case RITAS_OPT_BC_VARIANT:
      if (value != 0 && value != 1) return RITAS_EINVAL;
      r->opts.stack.variants.bc = static_cast<ritas::BcVariant>(value);
      return RITAS_OK;
  }
  return RITAS_EINVAL;
}

long ritas_link_states(ritas_t* r, uint8_t* states, size_t cap) {
  if (r == nullptr || (states == nullptr && cap > 0)) return RITAS_EINVAL;
  if (!started(r)) return RITAS_ESTATE;
  if (cap < r->opts.n) return RITAS_ETOOBIG;
  return guarded([&]() -> long {
    const auto ls = r->ctx->link_states();
    for (size_t i = 0; i < ls.size(); ++i) {
      states[i] = static_cast<uint8_t>(ls[i]);
    }
    return static_cast<long>(ls.size());
  });
}

long long ritas_stat(ritas_t* r, int stat) {
  if (r == nullptr) return RITAS_EINVAL;
  if (!started(r)) return RITAS_ESTATE;
  long long value = RITAS_EINVAL;
  r->ctx->transport_stats().for_each(
      [&](const ritas::CounterInfo& c, std::uint64_t v) {
        if (c.c_id == stat) value = static_cast<long long>(v);
      });
  return value;
}

int ritas_start(ritas_t* r) {
  if (r == nullptr) return RITAS_EINVAL;
  if (started(r)) return RITAS_ESTATE;
  for (bool a : r->added) {
    if (!a) return RITAS_ESTATE;  // every process must be registered
  }
  try {
    r->ctx = std::make_unique<ritas::Context>(r->opts);
    r->ctx->start();
    return RITAS_OK;
  } catch (const std::invalid_argument&) {
    r->ctx.reset();
    return RITAS_EINVAL;
  } catch (...) {
    r->ctx.reset();
    return RITAS_ENET;
  }
}

int ritas_stop(ritas_t* r) {
  if (r == nullptr) return RITAS_EINVAL;
  if (!started(r)) return RITAS_ESTATE;
  return guarded([r]() -> int {
    r->ctx->stop();  // wakes blocked recvs; ctx stays alive until destroy
    return RITAS_OK;
  });
}

void ritas_destroy(ritas_t* r) {
  if (r == nullptr) return;
  try {
    if (r->ctx) r->ctx->stop();
  } catch (...) {
  }
  delete r;
}

int ritas_rb_bcast(ritas_t* r, const uint8_t* msg, size_t len) {
  if (!started(r) || (msg == nullptr && len > 0)) return RITAS_EINVAL;
  return guarded([&]() -> int {
    r->ctx->rb_bcast(ritas::Bytes(msg, msg + len));
    return RITAS_OK;
  });
}

int ritas_eb_bcast(ritas_t* r, const uint8_t* msg, size_t len) {
  if (!started(r) || (msg == nullptr && len > 0)) return RITAS_EINVAL;
  return guarded([&]() -> int {
    r->ctx->eb_bcast(ritas::Bytes(msg, msg + len));
    return RITAS_OK;
  });
}

int ritas_ab_bcast(ritas_t* r, const uint8_t* msg, size_t len) {
  if (!started(r) || (msg == nullptr && len > 0)) return RITAS_EINVAL;
  return guarded([&]() -> int {
    r->ctx->ab_bcast(ritas::Bytes(msg, msg + len));
    return RITAS_OK;
  });
}

long ritas_rb_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap) {
  return receive(r, &ritas_t::rb, origin, buf, cap,
                 [](ritas::Context& c) { return c.rb_recv(); });
}

long ritas_eb_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap) {
  return receive(r, &ritas_t::eb, origin, buf, cap,
                 [](ritas::Context& c) { return c.eb_recv(); });
}

long ritas_ab_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap) {
  return ritas_ab_recv_timeout(r, origin, buf, cap, -1);
}

long ritas_ab_recv_timeout(ritas_t* r, uint32_t* origin, uint8_t* buf,
                           size_t cap, long timeout_ms) {
  return receive(r, &ritas_t::ab, origin, buf, cap,
                 [timeout_ms](ritas::Context& c)
                     -> std::optional<ritas::Context::AbDelivery> {
                   if (timeout_ms < 0) return c.ab_recv();
                   if (timeout_ms == 0) return c.ab_try_recv();
                   return c.ab_recv_for(
                       std::chrono::milliseconds(timeout_ms));
                 });
}

int ritas_ab_flush(ritas_t* r) {
  if (!started(r)) return RITAS_EINVAL;
  return guarded([r]() -> int {
    r->ctx->ab_flush();
    return RITAS_OK;
  });
}

int ritas_bc(ritas_t* r, int proposal) {
  if (!started(r)) return RITAS_EINVAL;
  return guarded([r, proposal]() -> int {
    return r->ctx->bc(proposal != 0) ? 1 : 0;
  });
}

long ritas_mvc(ritas_t* r, const uint8_t* msg, size_t len, uint8_t* buf,
               size_t cap, int* decided_default) {
  if (!started(r) || (msg == nullptr && len > 0) ||
      (buf == nullptr && cap > 0)) {
    return RITAS_EINVAL;
  }
  return guarded([&]() -> long {
    const auto decision = r->ctx->mvc(ritas::Bytes(msg, msg + len));
    if (decided_default != nullptr) *decided_default = decision ? 0 : 1;
    return decision ? copy_out(*decision, buf, cap) : 0;
  });
}

int ritas_vc(ritas_t* r, const uint8_t* msg, size_t len, uint8_t* buf,
             size_t entry_cap, long* lens) {
  if (!started(r) || (msg == nullptr && len > 0) || buf == nullptr ||
      lens == nullptr) {
    return RITAS_EINVAL;
  }
  return guarded([&]() -> int {
    const auto vec = r->ctx->vc(ritas::Bytes(msg, msg + len));
    for (size_t i = 0; i < vec.size(); ++i) {
      if (!vec[i]) {
        lens[i] = -1;
        continue;
      }
      if (vec[i]->size() > entry_cap) return RITAS_ETOOBIG;
      if (!vec[i]->empty()) {
        std::memcpy(buf + i * entry_cap, vec[i]->data(), vec[i]->size());
      }
      lens[i] = static_cast<long>(vec[i]->size());
    }
    return RITAS_OK;
  });
}

}  // extern "C"
