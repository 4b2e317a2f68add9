// The transport fast path's two byte-boundary workhorses, in isolation:
//
//  * net/batch_writer.h — multi-frame scatter-gather sendmsg batches must
//    resume byte-exactly after a short write landing ANYWHERE: mid-header,
//    mid-body, mid-MAC, or exactly on a segment/frame boundary. Proven at
//    every offset against the iovec builder, then against a real kernel
//    socket with a tiny SO_SNDBUF forcing genuine short writes.
//
//  * net/frame_reassembler.h — the receive-side stream splitter must hand
//    out the identical frame sequence (and the identical oversize verdict)
//    whether the stream arrives whole, one byte at a time, or chopped at
//    seeded random split points. Replayed over every tests/corpus/*.hex
//    body so the malformed-frame corpus pins the boundary behavior too.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "net/batch_writer.h"
#include "net/frame_reassembler.h"

namespace ritas::net {
namespace {

// ---------------------------------------------------------------------------
// Helpers

/// Owns the three segments of a wire frame and exposes the FrameImage view.
struct TestFrame {
  Bytes hdr;
  Bytes body;
  Bytes mac;  // empty = no MAC segment

  FrameImage image() const {
    FrameImage img;
    img.parts[0] = ByteView(hdr.data(), hdr.size());
    img.parts[1] = ByteView(body.data(), body.size());
    img.parts[2] = ByteView(mac.data(), mac.size());
    return img;
  }
  Bytes wire() const {
    Bytes w = hdr;
    w.insert(w.end(), body.begin(), body.end());
    w.insert(w.end(), mac.begin(), mac.end());
    return w;
  }
};

TestFrame make_frame(std::uint64_t sid, std::uint64_t counter, Bytes body,
                     bool with_mac) {
  TestFrame f;
  Writer hdr(FrameReassembler::kHeaderSize);
  hdr.u32(static_cast<std::uint32_t>(body.size()));
  hdr.u64(sid);
  hdr.u64(counter);
  const ByteView hb = hdr.data();
  f.hdr.assign(hb.begin(), hb.end());
  f.body = std::move(body);
  if (with_mac) {
    f.mac.resize(FrameReassembler::kMacSize);
    for (std::size_t i = 0; i < f.mac.size(); ++i) {
      f.mac[i] = static_cast<std::uint8_t>(0xA0 + counter + i);
    }
  }
  return f;
}

Bytes patterned_body(std::size_t size, std::uint8_t seed) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(seed * 31 + i * 7 + 1);
  }
  return b;
}

Bytes concat_wire(const std::vector<TestFrame>& frames) {
  Bytes all;
  for (const TestFrame& f : frames) {
    const Bytes w = f.wire();
    all.insert(all.end(), w.begin(), w.end());
  }
  return all;
}

/// True when [p, p + len) lies inside one segment of one frame: the iovec
/// aliases the retained bytes instead of a coalesced copy.
bool inside_a_segment(const std::vector<FrameImage>& imgs,
                      const std::uint8_t* p, std::size_t len) {
  for (const FrameImage& img : imgs) {
    for (const ByteView& seg : img.parts) {
      if (!seg.empty() && p >= seg.data() &&
          p + len <= seg.data() + seg.size()) {
        return true;
      }
    }
  }
  return false;
}

/// Flattens what build_batch_iov would hand to the kernel.
Bytes gather_iov(const std::vector<FrameImage>& imgs, std::size_t first_off,
                 std::size_t max_iov) {
  std::vector<iovec> iov(max_iov);
  const std::size_t used =
      build_batch_iov(imgs.data(), imgs.size(), first_off, iov.data(), max_iov);
  Bytes out;
  for (std::size_t i = 0; i < used; ++i) {
    const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
    out.insert(out.end(), p, p + iov[i].iov_len);
    EXPECT_GT(iov[i].iov_len, 0u) << "empty iovec slot leaked into the batch";
    EXPECT_TRUE(inside_a_segment(imgs, p, iov[i].iov_len))
        << "iovec " << i << " does not point into a frame segment (copied?)";
  }
  return out;
}

// ---------------------------------------------------------------------------
// build_batch_iov: every resumption offset reproduces the exact wire suffix.

TEST(BatchWriter, SingleFrameResumesAtEveryOffset) {
  // Authenticated 3-part frame: 20 B header | 13 B body | 32 B MAC. Every
  // first_off lands the resume point mid-header (off < 20), mid-body, on
  // each boundary, or mid-MAC — all must yield the byte-exact suffix.
  const TestFrame f = make_frame(0x1111222233334444ULL, 7,
                                 patterned_body(13, 3), /*with_mac=*/true);
  const std::vector<FrameImage> imgs = {f.image()};
  const Bytes wire = f.wire();
  for (std::size_t off = 0; off <= wire.size(); ++off) {
    const Bytes got = gather_iov(imgs, off, 16);
    const Bytes want(wire.begin() + static_cast<std::ptrdiff_t>(off), wire.end());
    ASSERT_EQ(got, want) << "resume at offset " << off;
  }
}

TEST(BatchWriter, MultiFrameBatchResumesAtEveryOffsetOfTheHead) {
  // A batch resumes only ever inside its FIRST unfinished frame (the drain
  // pops completed heads), but the tail frames ride along whole. Mix
  // full, empty-body and MAC-less images so empty segments sit at every
  // position.
  std::vector<TestFrame> frames;
  frames.push_back(make_frame(9, 0, patterned_body(10, 1), true));
  frames.push_back(make_frame(9, 1, {}, true));                    // empty body
  frames.push_back(make_frame(9, 2, patterned_body(5, 2), false));  // no MAC
  frames.push_back(make_frame(9, 3, patterned_body(33, 3), true));
  std::vector<FrameImage> imgs;
  for (const TestFrame& f : frames) imgs.push_back(f.image());
  const Bytes all = concat_wire(frames);
  const std::size_t head = frames[0].wire().size();
  for (std::size_t off = 0; off <= head; ++off) {
    const Bytes got = gather_iov(imgs, off, 64);
    const Bytes want(all.begin() + static_cast<std::ptrdiff_t>(off), all.end());
    ASSERT_EQ(got, want) << "batch resume at head offset " << off;
  }
  // The generalized contract — skip spans whole frames too (the builder
  // carries the skip across frame boundaries even though the drain
  // normally advances count instead).
  for (std::size_t off = 0; off <= all.size(); off += 11) {
    const Bytes got = gather_iov(imgs, off, 64);
    const Bytes want(all.begin() + static_cast<std::ptrdiff_t>(off), all.end());
    ASSERT_EQ(got, want) << "cross-frame resume at offset " << off;
  }
}

TEST(BatchWriter, IovBudgetTruncatesCleanlyMidFrame) {
  // A 2-slot budget over 3-part frames must end the batch mid-frame with
  // exactly the first two segments — the caller's cursor math handles the
  // rest. The budget helper itself stays within IOV_MAX.
  const TestFrame f = make_frame(1, 1, patterned_body(8, 4), true);
  const std::vector<FrameImage> imgs = {f.image(), f.image()};
  const Bytes got = gather_iov(imgs, 0, 2);
  Bytes want = f.hdr;
  want.insert(want.end(), f.body.begin(), f.body.end());
  EXPECT_EQ(got, want);
  EXPECT_GE(batch_iov_budget(), 16u);
  EXPECT_LE(batch_iov_budget(), static_cast<std::size_t>(3 * 128));
}

// ---------------------------------------------------------------------------
// sendmsg_batch against a real kernel socket.

struct SocketPair {
  int w = -1;
  int r = -1;
  SocketPair(int sndbuf, int rcvbuf) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    w = fds[0];
    r = fds[1];
    if (sndbuf > 0) {
      ::setsockopt(w, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    if (rcvbuf > 0) {
      ::setsockopt(r, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    // sendmsg_batch is specified against non-blocking sockets.
    EXPECT_EQ(::fcntl(w, F_SETFL, ::fcntl(w, F_GETFL, 0) | O_NONBLOCK), 0);
    EXPECT_EQ(::fcntl(r, F_SETFL, ::fcntl(r, F_GETFL, 0) | O_NONBLOCK), 0);
  }
  ~SocketPair() {
    if (w >= 0) ::close(w);
    if (r >= 0) ::close(r);
  }
  Bytes drain() {
    Bytes out;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t k = ::recv(r, buf, sizeof(buf), 0);
      if (k <= 0) break;
      out.insert(out.end(), buf, buf + k);
    }
    return out;
  }
};

/// Drives a batch to completion with the same cursor arithmetic as
/// TcpTransport::drain: `next` = first unfinished frame, `partial` =
/// bytes of it already written. Returns the number of short writes seen.
void pump_batch(SocketPair& sp, const std::vector<FrameImage>& imgs,
                Bytes& received, std::size_t& shorts) {
  std::size_t next = 0;
  std::size_t partial = 0;
  shorts = 0;
  while (next < imgs.size()) {
    const BatchWriteResult r =
        sendmsg_batch(sp.w, imgs.data() + next, imgs.size() - next, partial,
                      batch_iov_budget());
    ASSERT_NE(r.status, BatchWriteResult::Status::kError) << "pump_batch";
    if (r.status == BatchWriteResult::Status::kAgain) {
      const Bytes got = sp.drain();  // make room; the kernel buffer is full
      received.insert(received.end(), got.begin(), got.end());
      continue;
    }
    std::size_t acc = partial + r.bytes;
    while (next < imgs.size() && acc >= imgs[next].size()) {
      acc -= imgs[next].size();
      ++next;
    }
    partial = acc;
    if (next < imgs.size()) ++shorts;  // the kernel split a frame
  }
  const Bytes got = sp.drain();
  received.insert(received.end(), got.begin(), got.end());
}

TEST(BatchWriter, TinySndbufShortWritesResumeByteExactly) {
  // 96 odd-sized authenticated frames against a minimum-size send buffer:
  // the kernel is forced to split frames at arbitrary byte positions, and
  // the resumed stream must still be byte-identical to the logical concat.
  std::vector<TestFrame> frames;
  for (std::size_t i = 0; i < 96; ++i) {
    frames.push_back(make_frame(0xBEEF, i,
                                patterned_body(397 + (i % 13) * 61,
                                               static_cast<std::uint8_t>(i)),
                                /*with_mac=*/true));
  }
  std::vector<FrameImage> imgs;
  for (const TestFrame& f : frames) imgs.push_back(f.image());
  SocketPair sp(/*sndbuf=*/1, /*rcvbuf=*/1);  // kernel clamps to its minimum
  Bytes received;
  std::size_t shorts = 0;
  pump_batch(sp, imgs, received, shorts);
  EXPECT_EQ(received, concat_wire(frames));
  EXPECT_GT(shorts, 0u) << "SO_SNDBUF never forced a short write; the "
                           "resumption path went unexercised";
}

TEST(BatchWriter, ResumesMidHeaderAndMidMacOnARealSocket) {
  // Deterministic resume points: pre-write the first `cut` bytes of the
  // wire image raw (as if a previous sendmsg stopped exactly there), then
  // let sendmsg_batch finish from first_off=cut. Cuts inside the header
  // (1, 19), on the header/body boundary (20), mid-body, one byte into the
  // MAC, mid-MAC and one byte short of the end all must splice exactly.
  std::vector<TestFrame> frames;
  frames.push_back(make_frame(0xCAFE, 11, patterned_body(57, 9), true));
  frames.push_back(make_frame(0xCAFE, 12, patterned_body(24, 10), true));
  std::vector<FrameImage> imgs;
  for (const TestFrame& f : frames) imgs.push_back(f.image());
  const Bytes head_wire = frames[0].wire();
  const std::size_t hdr = FrameReassembler::kHeaderSize;
  const std::size_t body = frames[0].body.size();
  const std::vector<std::size_t> cuts = {
      1, hdr - 1, hdr, hdr + body / 2, hdr + body,      // mid/end header, body
      hdr + body + 1, hdr + body + 17, head_wire.size() - 1};  // inside MAC
  for (const std::size_t cut : cuts) {
    SocketPair sp(/*sndbuf=*/0, /*rcvbuf=*/0);
    ASSERT_EQ(::send(sp.w, head_wire.data(), cut, 0),
              static_cast<ssize_t>(cut));
    Bytes received = sp.drain();
    std::size_t next = 0;
    std::size_t partial = cut;
    while (next < imgs.size()) {
      const BatchWriteResult r =
          sendmsg_batch(sp.w, imgs.data() + next, imgs.size() - next, partial,
                        batch_iov_budget());
      ASSERT_EQ(r.status, BatchWriteResult::Status::kProgress);
      std::size_t acc = partial + r.bytes;
      while (next < imgs.size() && acc >= imgs[next].size()) {
        acc -= imgs[next].size();
        ++next;
      }
      partial = acc;
    }
    const Bytes got = sp.drain();
    received.insert(received.end(), got.begin(), got.end());
    EXPECT_EQ(received, concat_wire(frames)) << "resume cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// FrameReassembler: delivery granularity must not change verdicts.

/// Everything the transport would act on, in order: each frame's fields
/// and bytes, then the terminal status after the stream is exhausted.
struct Verdicts {
  std::vector<std::string> events;
  bool operator==(const Verdicts&) const = default;
};

void harvest(FrameReassembler& ra, Verdicts& v) {
  FrameReassembler::Frame f;
  for (;;) {
    const FrameReassembler::Status st = ra.next(f);
    if (st == FrameReassembler::Status::kNeedMore) break;
    if (st == FrameReassembler::Status::kOversize) {
      v.events.push_back("oversize");
      ra.clear();  // the transport poisons the stream here
      break;
    }
    std::string e = "frame sid=" + std::to_string(f.sid) +
                    " ctr=" + std::to_string(f.counter) + " body=";
    e += to_hex(Bytes(f.body.begin(), f.body.end()));
    e += " mac=";
    e += to_hex(Bytes(f.mac.begin(), f.mac.end()));
    v.events.push_back(std::move(e));
    ra.consume();
  }
  ra.compact();
}

/// Feeds `stream` at the given split points (positions where the stream is
/// cut into separate feed() calls) and returns every verdict in order.
Verdicts replay(const Bytes& stream, const std::vector<std::size_t>& splits,
                std::size_t max_frame) {
  FrameReassembler ra(max_frame);
  Verdicts v;
  std::size_t at = 0;
  for (const std::size_t s : splits) {
    ra.feed(stream.data() + at, s - at);
    at = s;
    harvest(ra, v);
  }
  ra.feed(stream.data() + at, stream.size() - at);
  harvest(ra, v);
  v.events.push_back("buffered=" + std::to_string(ra.buffered()));
  return v;
}

std::vector<std::size_t> every_byte(std::size_t n) {
  std::vector<std::size_t> s;
  for (std::size_t i = 1; i < n; ++i) s.push_back(i);
  return s;
}

std::vector<std::size_t> random_splits(std::size_t n, Rng& rng) {
  std::vector<std::size_t> s;
  std::size_t at = 0;
  while (n != 0 && at + 1 < n) {
    at += 1 + rng.below(17);
    if (at >= n) break;
    s.push_back(at);
  }
  return s;
}

/// Same corpus loader as test_fuzz.cpp: hex bytes, whitespace ignored,
/// '#' to end of line is a comment.
std::optional<Bytes> load_corpus_frame(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  Bytes out;
  int hi = -1;
  for (std::string line; std::getline(in, line);) {
    for (char ch : line) {
      if (ch == '#') break;
      if (std::isspace(static_cast<unsigned char>(ch))) continue;
      const int v = std::isdigit(static_cast<unsigned char>(ch)) ? ch - '0'
                    : ch >= 'a' && ch <= 'f'                     ? ch - 'a' + 10
                    : ch >= 'A' && ch <= 'F'                     ? ch - 'A' + 10
                                                                 : -1;
      if (v < 0) return std::nullopt;
      if (hi < 0) {
        hi = v;
      } else {
        out.push_back(static_cast<std::uint8_t>(hi << 4 | v));
        hi = -1;
      }
    }
  }
  if (hi >= 0) return std::nullopt;
  return out;
}

std::vector<Bytes> corpus_bodies() {
  const std::filesystem::path dir = RITAS_TEST_CORPUS_DIR;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".hex") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<Bytes> bodies;
  for (const auto& f : files) {
    auto b = load_corpus_frame(f);
    EXPECT_TRUE(b.has_value()) << "bad hex in " << f;
    if (b) bodies.push_back(std::move(*b));
  }
  return bodies;
}

TEST(FrameReassembler, CorpusBodiesSplitInvariant) {
  // Every corpus entry wrapped as one wire frame, delivered whole vs one
  // byte at a time vs at seeded random split points: identical verdicts.
  // (The corpus bytes are protocol-layer payloads — exactly what rides in
  // a data frame's body — including ones crafted to look like handshake or
  // frame-header bytes, which must not confuse the splitter.)
  const auto bodies = corpus_bodies();
  ASSERT_GE(bodies.size(), 10u) << "corpus went missing";
  Rng rng(20260809);
  std::size_t idx = 0;
  for (const Bytes& body : bodies) {
    const Bytes stream = make_frame(0xD00D + idx, idx, body, true).wire();
    const Verdicts whole = replay(stream, {}, 1u << 20);
    const Verdicts bytewise = replay(stream, every_byte(stream.size()), 1u << 20);
    const Verdicts random =
        replay(stream, random_splits(stream.size(), rng), 1u << 20);
    EXPECT_EQ(whole, bytewise) << "corpus body " << idx;
    EXPECT_EQ(whole, random) << "corpus body " << idx;
    ++idx;
  }
}

TEST(FrameReassembler, ConcatenatedCorpusStreamSplitInvariant) {
  // All corpus bodies back-to-back in ONE stream — boundary bugs that only
  // show when a feed chunk straddles two frames have nowhere to hide.
  const auto bodies = corpus_bodies();
  std::vector<TestFrame> frames;
  std::size_t idx = 0;
  for (const Bytes& body : bodies) {
    frames.push_back(make_frame(0xFEED, idx++, body, true));
  }
  const Bytes stream = concat_wire(frames);
  const Verdicts whole = replay(stream, {}, 1u << 20);
  EXPECT_EQ(whole.events.size(), frames.size() + 1);  // +1 terminal buffered=0
  const Verdicts bytewise = replay(stream, every_byte(stream.size()), 1u << 20);
  EXPECT_EQ(whole, bytewise);
  Rng rng(424242);
  for (int round = 0; round < 8; ++round) {
    const Verdicts random =
        replay(stream, random_splits(stream.size(), rng), 1u << 20);
    EXPECT_EQ(whole, random) << "seeded split round " << round;
  }
}

TEST(FrameReassembler, OversizeVerdictIsGranularityIndependent) {
  // A Byzantine length field must poison the stream at the same point
  // whether the header arrived whole or byte-dribbled — and before the
  // declared body is buffered.
  const std::size_t max_frame = 64;
  TestFrame ok = make_frame(5, 0, patterned_body(10, 1), true);
  Writer bad_hdr(FrameReassembler::kHeaderSize);
  bad_hdr.u32(1u << 30);  // declared body far past max_frame
  bad_hdr.u64(5);
  bad_hdr.u64(1);
  Bytes stream = ok.wire();
  const ByteView bh = bad_hdr.data();
  stream.insert(stream.end(), bh.begin(), bh.end());
  // No body bytes follow — the verdict must not wait for them.
  const Verdicts whole = replay(stream, {}, max_frame);
  const Verdicts bytewise = replay(stream, every_byte(stream.size()), max_frame);
  EXPECT_EQ(whole, bytewise);
  ASSERT_GE(whole.events.size(), 2u);
  EXPECT_EQ(whole.events[1], "oversize");
}

TEST(FrameReassembler, CompactPreservesPendingBytes) {
  // compact() mid-stream (as the transport does once per drain loop) must
  // never disturb a partially-buffered frame.
  const TestFrame a = make_frame(1, 0, patterned_body(40, 2), true);
  const TestFrame b = make_frame(1, 1, patterned_body(9, 3), true);
  const Bytes wa = a.wire();
  const Bytes wb = b.wire();
  FrameReassembler ra(1u << 20);
  ra.feed(wa.data(), wa.size());
  ra.feed(wb.data(), 5);  // partial header of frame b
  Verdicts v;
  harvest(ra, v);  // consumes frame a, compacts, keeps b's prefix
  ASSERT_EQ(v.events.size(), 1u);
  EXPECT_EQ(ra.buffered(), 5u);
  ra.feed(wb.data() + 5, wb.size() - 5);
  harvest(ra, v);
  ASSERT_EQ(v.events.size(), 2u);
  EXPECT_EQ(ra.buffered(), 0u);
}

}  // namespace
}  // namespace ritas::net
