// The paper-faithful C API (ritas_init / ritas_proc_add_ipv4 / service
// calls / ritas_destroy), exercised end-to-end over real sockets plus its
// argument-validation and error paths.
#include "ritas/ritas_c.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "net_helpers.h"
#include "ritas/ritas_c_context.h"

namespace {

using ritas::test::free_ports;

constexpr std::uint8_t kSecret[] = "c-api-shared-secret";

struct CCluster {
  std::array<ritas_t*, 4> r{};

  CCluster() {
    const auto ports = free_ports(4);
    for (std::uint32_t p = 0; p < 4; ++p) {
      r[p] = ritas_init(4, p, kSecret, sizeof(kSecret));
      EXPECT_NE(r[p], nullptr);
      for (std::uint32_t q = 0; q < 4; ++q) {
        EXPECT_EQ(ritas_proc_add_ipv4(r[p], q, "127.0.0.1", ports[q]), RITAS_OK);
      }
    }
    std::vector<std::thread> starters;
    for (std::uint32_t p = 0; p < 4; ++p) {
      starters.emplace_back([this, p] { EXPECT_EQ(ritas_start(r[p]), RITAS_OK); });
    }
    for (auto& t : starters) t.join();
  }
  ~CCluster() {
    for (auto* ctx : r) ritas_destroy(ctx);
  }
};

TEST(CApi, InitValidation) {
  EXPECT_EQ(ritas_init(3, 0, kSecret, sizeof(kSecret)), nullptr);  // n < 4
  EXPECT_EQ(ritas_init(4, 4, kSecret, sizeof(kSecret)), nullptr);  // self >= n
  ritas_t* r = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(ritas_proc_add_ipv4(r, 7, "127.0.0.1", 1), RITAS_EINVAL);
  EXPECT_EQ(ritas_proc_add_ipv4(r, 0, nullptr, 1), RITAS_EINVAL);
  // Starting before all processes are registered is a state error.
  EXPECT_EQ(ritas_start(r), RITAS_ESTATE);
  // Service calls before start are invalid.
  EXPECT_EQ(ritas_bc(r, 1), RITAS_EINVAL);
  ritas_destroy(r);
  ritas_destroy(nullptr);  // must be safe
}

TEST(CApi, ReliableBroadcastRoundTrip) {
  CCluster c;
  const char* msg = "c api rb";
  ASSERT_EQ(ritas_rb_bcast(c.r[0], reinterpret_cast<const std::uint8_t*>(msg),
                           std::strlen(msg)),
            RITAS_OK);
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::uint8_t buf[64];
    std::uint32_t origin = 99;
    const long n = ritas_rb_recv(c.r[p], &origin, buf, sizeof(buf));
    ASSERT_EQ(n, static_cast<long>(std::strlen(msg)));
    EXPECT_EQ(origin, 0u);
    EXPECT_EQ(std::memcmp(buf, msg, static_cast<std::size_t>(n)), 0);
  }
}

TEST(CApi, RecvTooSmallBufferKeepsMessage) {
  CCluster c;
  const char* msg = "twelve bytes";
  ASSERT_EQ(ritas_rb_bcast(c.r[1], reinterpret_cast<const std::uint8_t*>(msg), 12),
            RITAS_OK);
  std::uint8_t tiny[4];
  EXPECT_EQ(ritas_rb_recv(c.r[2], nullptr, tiny, sizeof(tiny)), RITAS_ETOOBIG);
  // The message was not lost: a big-enough buffer still gets it.
  std::uint8_t big[64];
  std::uint32_t origin = 0;
  const long n = ritas_rb_recv(c.r[2], &origin, big, sizeof(big));
  ASSERT_EQ(n, 12);
  EXPECT_EQ(origin, 1u);
}

TEST(CApi, BinaryConsensus) {
  CCluster c;
  std::array<int, 4> decision{};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&c, &decision, p] { decision[p] = ritas_bc(c.r[p], 1); });
  }
  for (auto& t : threads) t.join();
  for (int d : decision) EXPECT_EQ(d, 1);
}

TEST(CApi, MultiValuedConsensus) {
  CCluster c;
  const char* value = "the-decided-value";
  std::array<long, 4> n{};
  std::array<int, 4> bot{};
  std::array<std::array<std::uint8_t, 64>, 4> buf{};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      n[p] = ritas_mvc(c.r[p], reinterpret_cast<const std::uint8_t*>(value),
                       std::strlen(value), buf[p].data(), buf[p].size(), &bot[p]);
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(n[p], static_cast<long>(std::strlen(value)));
    EXPECT_EQ(bot[p], 0);
    EXPECT_EQ(std::memcmp(buf[p].data(), value, static_cast<std::size_t>(n[p])), 0);
  }
}

TEST(CApi, VectorConsensus) {
  CCluster c;
  constexpr std::size_t kCap = 32;
  std::array<std::array<std::uint8_t, 4 * kCap>, 4> buf{};
  std::array<std::array<long, 4>, 4> lens{};
  std::array<int, 4> rc{};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      const std::string v = "entry-" + std::to_string(p);
      rc[p] = ritas_vc(c.r[p], reinterpret_cast<const std::uint8_t*>(v.data()),
                       v.size(), buf[p].data(), kCap, lens[p].data());
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(rc[p], RITAS_OK);
    EXPECT_EQ(lens[p], lens[0]);  // agreement on the whole vector
  }
  int present = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    if (lens[0][i] >= 0) ++present;
  }
  EXPECT_GE(present, 3);  // n - f entries
}

TEST(CApi, SetOptValidation) {
  ritas_t* r = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(ritas_set_opt(nullptr, RITAS_OPT_BATCH_ENABLED, 1), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, 999, 1), RITAS_EINVAL);             // unknown opt
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_ENABLED, 2), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_ENABLED, -1), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_MAX_MSGS, 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_MAX_BYTES, -5), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_RECV_WINDOW, 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_MAX_BYTES, 0x1'0000'0000L),
            RITAS_EINVAL);  // does not fit u32
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_ENABLED, 1), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_MAX_MSGS, 8), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BATCH_MAX_BYTES, 4096), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_RECV_WINDOW, 32), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_MIN_START_LINKS, -1), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_MIN_START_LINKS, 4), RITAS_EINVAL);  // >= n
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_MIN_START_LINKS, 3), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_MIN_START_LINKS, 0), RITAS_OK);  // auto
  ritas_destroy(r);
  // Options are pre-start only: after the mesh is up they are refused.
  CCluster c;
  EXPECT_EQ(ritas_set_opt(c.r[0], RITAS_OPT_BATCH_ENABLED, 1), RITAS_ESTATE);
}

TEST(CApi, VariantOptions) {
  ritas_t* r = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(r, nullptr);
  // Known variants are 0 (Bracha) and 1 (Imbs-Raynal / Crain).
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_RB_VARIANT, 2), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_RB_VARIANT, -1), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BC_VARIANT, 2), RITAS_EINVAL);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_RB_VARIANT, 1), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_RB_VARIANT, 0), RITAS_OK);
  EXPECT_EQ(ritas_set_opt(r, RITAS_OPT_BC_VARIANT, 1), RITAS_OK);
  ritas_destroy(r);
}

TEST(CApi, ImbsRaynalBelowResilienceBoundFailsAtStart) {
  // The 2-step broadcast needs n >= 6 (t < n/5); the incompatibility is
  // reported from ritas_start as RITAS_EINVAL, before any networking.
  const auto ports = free_ports(4);
  ritas_t* r = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(r, nullptr);
  for (std::uint32_t q = 0; q < 4; ++q) {
    ASSERT_EQ(ritas_proc_add_ipv4(r, q, "127.0.0.1", ports[q]), RITAS_OK);
  }
  ASSERT_EQ(ritas_set_opt(r, RITAS_OPT_RB_VARIANT, 1), RITAS_OK);
  EXPECT_EQ(ritas_start(r), RITAS_EINVAL);
  ritas_destroy(r);
}

TEST(CApi, CrainBinaryConsensusOverTcp) {
  // RITAS_OPT_BC_VARIANT=1 selects Crain and implies the dealt common coin
  // (derived from the dealt group key, so it works across real processes).
  const auto ports = free_ports(4);
  std::array<ritas_t*, 4> r{};
  for (std::uint32_t p = 0; p < 4; ++p) {
    r[p] = ritas_init(4, p, kSecret, sizeof(kSecret));
    ASSERT_NE(r[p], nullptr);
    ASSERT_EQ(ritas_set_opt(r[p], RITAS_OPT_BC_VARIANT, 1), RITAS_OK);
    for (std::uint32_t q = 0; q < 4; ++q) {
      ASSERT_EQ(ritas_proc_add_ipv4(r[p], q, "127.0.0.1", ports[q]), RITAS_OK);
    }
  }
  std::vector<std::thread> starters;
  for (std::uint32_t p = 0; p < 4; ++p) {
    starters.emplace_back([&r, p] { EXPECT_EQ(ritas_start(r[p]), RITAS_OK); });
  }
  for (auto& t : starters) t.join();

  std::array<int, 4> decision{};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back(
        [&r, &decision, p] { decision[p] = ritas_bc(r[p], p % 2); });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 1; p < 4; ++p) EXPECT_EQ(decision[p], decision[0]);
  EXPECT_GE(decision[0], 0);  // a decision, not an error code
  for (auto* ctx : r) ritas_destroy(ctx);
}

TEST(CApi, RecvTimeoutAndStop) {
  CCluster c;
  std::uint8_t buf[16];
  // Nothing in flight: a zero timeout polls, a short one waits then gives up.
  EXPECT_EQ(ritas_ab_recv_timeout(c.r[0], nullptr, buf, sizeof(buf), 0),
            RITAS_EAGAIN);
  EXPECT_EQ(ritas_ab_recv_timeout(c.r[0], nullptr, buf, sizeof(buf), 25),
            RITAS_EAGAIN);
  // A delivery satisfies a bounded wait.
  const char* msg = "timed";
  ASSERT_EQ(ritas_ab_bcast(c.r[1], reinterpret_cast<const std::uint8_t*>(msg),
                           std::strlen(msg)),
            RITAS_OK);
  std::uint32_t origin = 99;
  const long n = ritas_ab_recv_timeout(c.r[2], &origin, buf, sizeof(buf), 30'000);
  ASSERT_EQ(n, static_cast<long>(std::strlen(msg)));
  EXPECT_EQ(origin, 1u);
  // Drain the same delivery at node 3 so the blocked receive below really
  // has nothing to return.
  ASSERT_GT(ritas_ab_recv(c.r[3], nullptr, buf, sizeof(buf)), 0);

  // ritas_stop wakes a blocked receive with RITAS_ESHUTDOWN...
  std::atomic<long> rc{0};
  std::thread blocked([&] {
    std::uint8_t b[16];
    rc.store(ritas_ab_recv(c.r[3], nullptr, b, sizeof(b)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ritas_stop(c.r[3]), RITAS_OK);
  blocked.join();
  EXPECT_EQ(rc.load(), RITAS_ESHUTDOWN);
  // ...is idempotent, and leaves the handle valid for ritas_destroy.
  EXPECT_EQ(ritas_stop(c.r[3]), RITAS_OK);
  EXPECT_EQ(ritas_ab_recv_timeout(c.r[3], nullptr, buf, sizeof(buf), 0),
            RITAS_ESHUTDOWN);
}

TEST(CApi, StopEndsConsensusCalls) {
  CCluster c;
  // A lone proposer never decides, so only ritas_stop can end this wait.
  std::atomic<int> rc{0};
  std::thread blocked([&] { rc.store(ritas_bc(c.r[0], 1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(ritas_stop(c.r[0]), RITAS_OK);
  blocked.join();
  EXPECT_EQ(rc.load(), RITAS_ESHUTDOWN);
  // Calls after the stop are state errors, as for ritas_*_bcast.
  const std::uint8_t v[] = "late";
  std::uint8_t buf[64];
  int decided_default = -1;
  long lens[4];
  EXPECT_EQ(ritas_bc(c.r[0], 0), RITAS_ESTATE);
  EXPECT_EQ(ritas_mvc(c.r[0], v, sizeof(v), buf, sizeof(buf), &decided_default),
            RITAS_ESTATE);
  EXPECT_EQ(ritas_vc(c.r[0], v, sizeof(v), buf, 16, lens), RITAS_ESTATE);
  EXPECT_EQ(ritas_rb_bcast(c.r[0], v, sizeof(v)), RITAS_ESTATE);
}

TEST(CApi, StopBeforeStartIsAStateError) {
  ritas_t* r = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(ritas_stop(r), RITAS_ESTATE);
  EXPECT_EQ(ritas_stop(nullptr), RITAS_EINVAL);
  // Service calls before start follow the existing convention: EINVAL.
  EXPECT_EQ(ritas_ab_flush(r), RITAS_EINVAL);
  ritas_destroy(r);
}

TEST(CApi, BatchedAtomicBroadcastTotalOrder) {
  // The full batched path through the C surface: enable batching pre-start
  // at every node (wire-format switch), burst small payloads, flush, and
  // check the unpacked per-message total order.
  const auto ports = free_ports(4);
  std::array<ritas_t*, 4> r{};
  for (std::uint32_t p = 0; p < 4; ++p) {
    r[p] = ritas_init(4, p, kSecret, sizeof(kSecret));
    ASSERT_NE(r[p], nullptr);
    ASSERT_EQ(ritas_set_opt(r[p], RITAS_OPT_BATCH_ENABLED, 1), RITAS_OK);
    ASSERT_EQ(ritas_set_opt(r[p], RITAS_OPT_BATCH_MAX_MSGS, 4), RITAS_OK);
    for (std::uint32_t q = 0; q < 4; ++q) {
      ASSERT_EQ(ritas_proc_add_ipv4(r[p], q, "127.0.0.1", ports[q]), RITAS_OK);
    }
  }
  std::vector<std::thread> starters;
  for (std::uint32_t p = 0; p < 4; ++p) {
    starters.emplace_back([&r, p] { EXPECT_EQ(ritas_start(r[p]), RITAS_OK); });
  }
  for (auto& t : starters) t.join();

  constexpr int kPer = 6;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < kPer; ++i) {
      const std::string m = "b" + std::to_string(p) + "." + std::to_string(i);
      ASSERT_EQ(ritas_ab_bcast(r[p], reinterpret_cast<const std::uint8_t*>(m.data()),
                               m.size()),
                RITAS_OK);
    }
    ASSERT_EQ(ritas_ab_flush(r[p]), RITAS_OK);
  }
  std::array<std::vector<std::string>, 4> order;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 4 * kPer; ++i) {
      std::uint8_t buf[64];
      const long n = ritas_ab_recv(r[p], nullptr, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      order[p].emplace_back(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
    }
  }
  for (std::uint32_t p = 1; p < 4; ++p) EXPECT_EQ(order[p], order[0]);
  for (auto* ctx : r) ritas_destroy(ctx);
}

TEST(CApi, AtomicBroadcastTotalOrder) {
  CCluster c;
  for (std::uint32_t p = 0; p < 4; ++p) {
    const std::string m = "ab-" + std::to_string(p);
    ASSERT_EQ(ritas_ab_bcast(c.r[p], reinterpret_cast<const std::uint8_t*>(m.data()),
                             m.size()),
              RITAS_OK);
  }
  std::array<std::vector<std::string>, 4> order;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 4; ++i) {
      std::uint8_t buf[64];
      const long n = ritas_ab_recv(c.r[p], nullptr, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      order[p].emplace_back(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
    }
  }
  for (std::uint32_t p = 1; p < 4; ++p) EXPECT_EQ(order[p], order[0]);
}

TEST(CApi, LinkProbesAndStats) {
  ritas_t* cold = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(cold, nullptr);
  std::uint8_t states[4];
  // Probes are start-gated, and the buffer must hold all n entries.
  EXPECT_EQ(ritas_link_states(cold, states, sizeof(states)), RITAS_ESTATE);
  EXPECT_EQ(ritas_stat(cold, RITAS_STAT_FRAMES_SENT), RITAS_ESTATE);
  ritas_destroy(cold);

  CCluster c;
  EXPECT_EQ(ritas_link_states(c.r[0], states, 3), RITAS_ETOOBIG);
  EXPECT_EQ(ritas_link_states(c.r[0], nullptr, sizeof(states)), RITAS_EINVAL);
  EXPECT_EQ(ritas_stat(c.r[0], 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_stat(c.r[0], 999), RITAS_EINVAL);

  // Run one broadcast so traffic demonstrably flows through the counters.
  const char* msg = "probe";
  ASSERT_EQ(ritas_rb_bcast(c.r[0], reinterpret_cast<const std::uint8_t*>(msg),
                           std::strlen(msg)),
            RITAS_OK);
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::uint8_t buf[16];
    ASSERT_GT(ritas_rb_recv(c.r[p], nullptr, buf, sizeof(buf)), 0);
  }
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(ritas_link_states(c.r[p], states, sizeof(states)), 4);
    EXPECT_EQ(states[p], RITAS_LINK_UP) << "self entry reads up";
    for (std::uint32_t q = 0; q < 4; ++q) {
      EXPECT_GE(states[q], RITAS_LINK_DOWN);
      EXPECT_LE(states[q], RITAS_LINK_BACKOFF);
    }
    // Send counters tick when the poll thread flushes the batched queue to
    // the kernel, which can trail delivery by a reactor cycle — poll
    // briefly instead of snapshotting.
    const auto eventually_positive = [&](int stat) {
      for (int spin = 0; spin < 400; ++spin) {
        if (ritas_stat(c.r[p], stat) > 0) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return false;
    };
    EXPECT_TRUE(eventually_positive(RITAS_STAT_FRAMES_SENT));
    EXPECT_GT(ritas_stat(c.r[p], RITAS_STAT_FRAMES_RECEIVED), 0);
    EXPECT_TRUE(eventually_positive(RITAS_STAT_BYTES_SENT));
    // Fast-path counters: flushed frames imply sendmsg syscalls and bytes
    // accepted by the kernel.
    EXPECT_TRUE(eventually_positive(RITAS_STAT_SENDMSG_CALLS));
    EXPECT_TRUE(eventually_positive(RITAS_STAT_BYTES_TO_KERNEL));
    EXPECT_EQ(ritas_stat(c.r[p], RITAS_STAT_MAC_FAILURES), 0);
    EXPECT_EQ(ritas_stat(c.r[p], RITAS_STAT_SESSION_REJECTS), 0);
    EXPECT_EQ(ritas_stat(c.r[p], RITAS_STAT_BATCH_COPY_BYTES), 0);
  }

  // Every row of the transport counter list is reachable by its id and
  // reads the same value as the C++ snapshot. Stopped sessions keep their
  // counters still, so the two reads must agree exactly.
  for (auto* r : c.r) ASSERT_EQ(ritas_stop(r), RITAS_OK);
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::set<int> ids;
    c.r[p]->ctx->transport_stats().for_each(
        [&](const ritas::CounterInfo& info, std::uint64_t value) {
          EXPECT_TRUE(ids.insert(info.c_id).second) << "duplicate id " << info.c_id;
          EXPECT_GT(info.c_id, 0) << info.name << " has no ritas_stat id";
          EXPECT_EQ(ritas_stat(c.r[p], info.c_id),
                    static_cast<long long>(value))
              << info.name;
        });
  }
  EXPECT_EQ(RITAS_STAT_PEER_CLOSED, 20);
  EXPECT_EQ(RITAS_STAT_BATCH_COPY_BYTES, 21);
}

TEST(CApi, RetiredPipelineIdsAreEinval) {
  // 6 (consensus group id), 9 (reactor threads), 10 (HMAC workers) and
  // 11 (transport send batching) were retired knobs; 13-14 (HMAC worker
  // counters) and 15-17 (handoff counters, reactor queue depth) retired
  // stats. All are rejected, whatever the value, and never reused.
  ritas_t* r = ritas_init(4, 0, kSecret, sizeof(kSecret));
  ASSERT_NE(r, nullptr);
  for (int opt : {6, 9, 10, 11}) {
    for (long v : {-1L, 0L, 1L, 2L}) {
      EXPECT_EQ(ritas_set_opt(r, opt, v), RITAS_EINVAL) << "opt " << opt << " = " << v;
    }
  }
  ritas_destroy(r);
  CCluster c;
  for (int stat = 13; stat <= 17; ++stat) {
    EXPECT_EQ(ritas_stat(c.r[0], stat), RITAS_EINVAL) << "stat " << stat;
  }
  EXPECT_GE(ritas_stat(c.r[0], RITAS_STAT_FRAMES_RECEIVED), 0);
}

}  // namespace
