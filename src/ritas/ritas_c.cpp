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
      r->opts.batch.enabled = value != 0;
      return RITAS_OK;
    case RITAS_OPT_BATCH_MAX_MSGS:
      if (value <= 0 || value > 0xffffffffL) return RITAS_EINVAL;
      r->opts.batch.max_msgs = static_cast<uint32_t>(value);
      return RITAS_OK;
    case RITAS_OPT_BATCH_MAX_BYTES:
      if (value <= 0 || value > 0xffffffffL) return RITAS_EINVAL;
      r->opts.batch.max_bytes = static_cast<uint32_t>(value);
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
      /* Crain's agreement argument needs a COMMON coin; selecting it
       * implies the dealt coin so the pair can't be misconfigured. */
      if (r->opts.stack.variants.bc == ritas::BcVariant::kCrain) {
        r->opts.stack.coin_mode = ritas::CoinMode::kDealt;
      }
      return RITAS_OK;
  }
  return RITAS_EINVAL;
}

long ritas_link_states(ritas_t* r, uint8_t* states, size_t cap) {
  if (r == nullptr || (states == nullptr && cap > 0)) return RITAS_EINVAL;
  if (!started(r)) return RITAS_ESTATE;
  if (cap < r->opts.n) return RITAS_ETOOBIG;
  try {
    const auto ls = r->ctx->link_states();
    for (size_t i = 0; i < ls.size(); ++i) {
      states[i] = static_cast<uint8_t>(ls[i]);
    }
    return static_cast<long>(ls.size());
  } catch (...) {
    return RITAS_EINTERNAL;
  }
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
  try {
    r->ctx->stop();  // wakes blocked recvs; ctx stays alive until destroy
    return RITAS_OK;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
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
  try {
    r->ctx->rb_bcast(ritas::Bytes(msg, msg + len));
    return RITAS_OK;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;  // session stopped
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

int ritas_eb_bcast(ritas_t* r, const uint8_t* msg, size_t len) {
  if (!started(r) || (msg == nullptr && len > 0)) return RITAS_EINVAL;
  try {
    r->ctx->eb_bcast(ritas::Bytes(msg, msg + len));
    return RITAS_OK;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;  // session stopped
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

int ritas_ab_bcast(ritas_t* r, const uint8_t* msg, size_t len) {
  if (!started(r) || (msg == nullptr && len > 0)) return RITAS_EINVAL;
  try {
    r->ctx->ab_bcast(ritas::Bytes(msg, msg + len));
    return RITAS_OK;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;  // session stopped
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

long ritas_rb_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap) {
  if (!started(r) || (buf == nullptr && cap > 0)) return RITAS_EINVAL;
  try {
    std::lock_guard<std::mutex> lock(r->rb_mutex);
    if (!r->rb_stash) r->rb_stash = r->ctx->rb_recv();
    const long rc = copy_out(r->rb_stash->payload, buf, cap);
    if (rc < 0) return rc;  // stays stashed
    if (origin != nullptr) *origin = r->rb_stash->origin;
    r->rb_stash.reset();
    return rc;
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

long ritas_eb_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap) {
  if (!started(r) || (buf == nullptr && cap > 0)) return RITAS_EINVAL;
  try {
    std::lock_guard<std::mutex> lock(r->eb_mutex);
    if (!r->eb_stash) r->eb_stash = r->ctx->eb_recv();
    const long rc = copy_out(r->eb_stash->payload, buf, cap);
    if (rc < 0) return rc;
    if (origin != nullptr) *origin = r->eb_stash->origin;
    r->eb_stash.reset();
    return rc;
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

long ritas_ab_recv(ritas_t* r, uint32_t* origin, uint8_t* buf, size_t cap) {
  return ritas_ab_recv_timeout(r, origin, buf, cap, -1);
}

long ritas_ab_recv_timeout(ritas_t* r, uint32_t* origin, uint8_t* buf,
                           size_t cap, long timeout_ms) {
  if (!started(r) || (buf == nullptr && cap > 0)) return RITAS_EINVAL;
  try {
    std::lock_guard<std::mutex> lock(r->ab_mutex);
    if (!r->ab_stash) {
      std::optional<ritas::Context::AbDelivery> d;
      if (timeout_ms < 0) {
        d = r->ctx->ab_recv();
      } else if (timeout_ms == 0) {
        d = r->ctx->ab_try_recv();
      } else {
        d = r->ctx->ab_recv_for(std::chrono::milliseconds(timeout_ms));
      }
      if (!d) return RITAS_EAGAIN;
      r->ab_stash = std::move(d);
    }
    const long rc = copy_out(r->ab_stash->payload, buf, cap);
    if (rc < 0) return rc;
    if (origin != nullptr) *origin = r->ab_stash->origin;
    r->ab_stash.reset();
    return rc;
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

int ritas_ab_flush(ritas_t* r) {
  if (!started(r)) return RITAS_EINVAL;
  try {
    r->ctx->ab_flush();
    return RITAS_OK;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;  // session stopped
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

int ritas_bc(ritas_t* r, int proposal) {
  if (!started(r)) return RITAS_EINVAL;
  try {
    return r->ctx->bc(proposal != 0) ? 1 : 0;
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;  // ritas_stop cut the wait short
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;  // session stopped
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

long ritas_mvc(ritas_t* r, const uint8_t* msg, size_t len, uint8_t* buf,
               size_t cap, int* decided_default) {
  if (!started(r) || (msg == nullptr && len > 0) ||
      (buf == nullptr && cap > 0)) {
    return RITAS_EINVAL;
  }
  try {
    const auto decision = r->ctx->mvc(ritas::Bytes(msg, msg + len));
    if (!decision) {
      if (decided_default != nullptr) *decided_default = 1;
      return 0;
    }
    if (decided_default != nullptr) *decided_default = 0;
    return copy_out(*decision, buf, cap);
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

int ritas_vc(ritas_t* r, const uint8_t* msg, size_t len, uint8_t* buf,
             size_t entry_cap, long* lens) {
  if (!started(r) || (msg == nullptr && len > 0) || buf == nullptr ||
      lens == nullptr) {
    return RITAS_EINVAL;
  }
  try {
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
  } catch (const ritas::ShutdownError&) {
    return RITAS_ESHUTDOWN;
  } catch (const std::logic_error&) {
    return RITAS_ESTATE;
  } catch (...) {
    return RITAS_EINTERNAL;
  }
}

}  // extern "C"
