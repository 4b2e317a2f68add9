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
 * owns the C++ Context. */
struct ritas_t {
  /// One service's receive side: its own mutex, so a blocked rb_recv does
  /// not stall eb/ab_recv, and a stash holding a popped-but-undersized
  /// delivery, so RITAS_ETOOBIG does not lose the message.
  template <typename D>
  struct Recv {
    std::mutex mutex;
    std::optional<D> stash;
  };

  ritas::Context::Options opts;
  std::vector<bool> added;
  std::unique_ptr<ritas::Context> ctx;
  Recv<ritas::Context::Delivery> rb, eb;
  Recv<ritas::Context::AbDelivery> ab;
};
