// Definition of the C API's opaque `ritas_t`, shared by ritas_c.cpp and
// the white-box C API tests. C callers only ever see the forward
// declaration in ritas_c.h.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ritas/context.h"
#include "ritas/ritas_c.h"

/* The opaque context: accumulates configuration until ritas_start, then
 * owns the C++ Context. recv stashes hold a popped-but-undersized delivery
 * so RITAS_ETOOBIG does not lose the message. */
struct ritas_t {
  ritas::Context::Options opts;
  std::vector<bool> added;
  std::unique_ptr<ritas::Context> ctx;
  // One mutex per service: a blocked rb_recv must not stall eb/ab_recv.
  std::mutex rb_mutex, eb_mutex, ab_mutex;
  std::optional<ritas::Context::Delivery> rb_stash, eb_stash;
  std::optional<ritas::Context::AbDelivery> ab_stash;
};
