// Multi-frame scatter-gather writer for the transport fast path.
//
// A wire frame is three non-owning segments — {20 B header, shared
// refcounted body, 32 B MAC trailer} — and a batch is many such frames
// drained from one link's pending queue into ONE sendmsg(). The iovec
// array points straight at the retained headers/bodies/MACs: assembling a
// batch copies zero payload bytes (tests/test_transport_batch.cpp checks
// that every iovec lies inside a retained segment).
//
// Short writes are the whole game: the kernel may accept any prefix of the
// offered bytes, landing mid-header, mid-body or mid-MAC. The caller
// tracks a byte offset into the first unfinished frame and re-enters with
// it; build_batch_iov() skips that many bytes across segment boundaries so
// the resumed sendmsg continues byte-exactly. tests/test_transport_batch.cpp
// drives every offset of multi-frame batches through a socketpair with a
// tiny SO_SNDBUF.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace ritas::net {

/// One frame as up to three non-owning segments (header, body, MAC); empty
/// segments are legal (bodies may be zero-length).
struct FrameImage {
  ByteView parts[3];
  std::size_t size() const {
    return parts[0].size() + parts[1].size() + parts[2].size();
  }
};

/// Fills `iov` (capacity `max_iov`) from `frames[0..count)`, skipping the
/// first `first_off` bytes of frames[0] (resumption after a short write;
/// may land inside any segment). Stops when the iovec budget is exhausted —
/// a batch may end mid-frame, the cursor arithmetic makes that safe.
/// Returns the number of iovec slots used.
std::size_t build_batch_iov(const FrameImage* frames, std::size_t count,
                            std::size_t first_off, iovec* iov,
                            std::size_t max_iov);

struct BatchWriteResult {
  enum class Status {
    kProgress,  // the kernel accepted `bytes` (possibly a short write)
    kAgain,     // socket buffer full, nothing accepted: wait for writability
    kError,     // fatal socket error (errno preserved)
  };
  Status status = Status::kAgain;
  std::size_t bytes = 0;
};

/// Exactly one sendmsg() over the batch (EINTR retried), non-blocking.
/// `first_off` resumes mid-frame as in build_batch_iov. `max_iov` is
/// clamped to the system IOV_MAX by the caller (see batch_iov_budget()).
BatchWriteResult sendmsg_batch(int fd, const FrameImage* frames,
                               std::size_t count, std::size_t first_off,
                               std::size_t max_iov);

/// min(IOV_MAX, a sane static cap): the per-sendmsg iovec budget.
std::size_t batch_iov_budget();

}  // namespace ritas::net
