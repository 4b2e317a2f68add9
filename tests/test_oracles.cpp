// The §2.7 atomic broadcast oracles judged on hand-built runs: each
// planted violation must be flagged by the oracle that owns it (and by no
// other), and a crashed origin's undelivered send must not be flagged.
// Every run goes through oracle::AbRecorder, so the batch-slot rule (and
// its absence in unbatched runs) is exercised too.
#include "sim/oracles.h"

#include <gtest/gtest.h>

#include <string>

namespace ritas::sim::oracle {
namespace {

const std::vector<ProcessId> kAll = {0, 1, 2, 3};

/// One delivery: (origin, rbid, payload).
struct D {
  ProcessId origin;
  std::uint64_t rbid;
  const char* payload;
};

/// Every process in `who` delivers `seq` in that order.
void deliver(AbRecorder& rec, const std::vector<ProcessId>& who,
             const std::vector<D>& seq) {
  for (ProcessId p : who) {
    for (const D& d : seq) {
      rec.delivered(p, d.origin, d.rbid, to_bytes(d.payload));
    }
  }
}

/// A batched run: origin 0 batches "a","b" under rbid 0; origin 1 sends
/// "c" alone.
AbRecorder sent_run() {
  AbRecorder rec(4, /*batched=*/true);
  rec.sent(0, 0, to_bytes("a"));
  rec.sent(0, 0, to_bytes("b"));
  rec.sent(1, 0, to_bytes("c"));
  return rec;
}

/// The report is non-empty and every violation comes from `oracle`.
void expect_only(const Report& r, const std::string& oracle) {
  EXPECT_FALSE(r.ok()) << "expected an " << oracle << " violation";
  for (const std::string& v : r.violations) {
    EXPECT_EQ(v.rfind(oracle + ":", 0), 0u) << v;
  }
}

TEST(AbOracles, SlotsNameEachMessageOfABatch) {
  AbRecorder rec = sent_run();
  EXPECT_EQ(rec.sent().size(), 3u);
  EXPECT_TRUE(rec.sent().contains({0, 0, 1}));
  EXPECT_TRUE(rec.sent().contains({1, 0, 0}));
  // A new run of the same (origin, rbid) restarts at slot 0; a contiguous
  // run counts up.
  rec.delivered(0, 0, 0, to_bytes("a"));
  rec.delivered(0, 0, 0, to_bytes("b"));
  rec.delivered(0, 1, 0, to_bytes("c"));
  rec.delivered(0, 0, 0, to_bytes("a"));
  ASSERT_EQ(rec.log(0).size(), 4u);
  EXPECT_EQ(rec.log(0)[1].slot, 1u);
  EXPECT_EQ(rec.log(0)[2].slot, 0u);
  EXPECT_EQ(rec.log(0)[3].slot, 0u);
}

TEST(AbOracles, CleanBatchedRunPasses) {
  AbRecorder rec = sent_run();
  EXPECT_FALSE(rec.all_delivered(kAll));
  deliver(rec, kAll, {{1, 0, "c"}, {0, 0, "a"}, {0, 0, "b"}});
  EXPECT_TRUE(rec.all_delivered(kAll));
  Report r;
  rec.check(r, kAll);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AbOracles, SwappedPayloadInOneBatchSlotIsCreation) {
  AbRecorder rec = sent_run();
  deliver(rec, kAll, {{0, 0, "a"}, {0, 0, "x"}, {1, 0, "c"}});
  Report r;
  rec.check(r, kAll);
  expect_only(r, "ab.no-creation");
}

TEST(AbOracles, BatchDeliveredTwiceIsDuplication) {
  AbRecorder rec = sent_run();
  deliver(rec, kAll, {{0, 0, "a"}, {0, 0, "b"}, {1, 0, "c"}, {0, 0, "a"},
                      {0, 0, "b"}});
  Report r;
  rec.check(r, kAll);
  expect_only(r, "ab.no-dup");
}

TEST(AbOracles, UnbatchedBackToBackRepeatIsDuplication) {
  // Unbatched, a repeat right after the original is the same message, not
  // the next batch slot — whether its origin is correct (p0) or not (p3).
  const std::vector<ProcessId> correct = {0, 1, 2};
  for (ProcessId origin : {ProcessId{0}, ProcessId{3}}) {
    AbRecorder rec(4, /*batched=*/false);
    rec.sent(0, 0, to_bytes("a"));
    deliver(rec, correct, {{0, 0, "a"}, {origin, 0, "a"}, {origin, 0, "a"}});
    Report r;
    rec.check(r, correct);
    expect_only(r, "ab.no-dup");
  }
}

TEST(AbOracles, DivergentPositionBreaksTotalOrder) {
  AbRecorder rec = sent_run();
  deliver(rec, {0, 1, 2}, {{0, 0, "a"}, {0, 0, "b"}, {1, 0, "c"}});
  deliver(rec, {3}, {{1, 0, "c"}, {0, 0, "a"}, {0, 0, "b"}});
  Report r;
  rec.check(r, kAll);
  expect_only(r, "ab.total-order");
}

TEST(AbOracles, UndeliveredCorrectSendBreaksValidity) {
  AbRecorder rec = sent_run();
  deliver(rec, kAll, {{0, 0, "a"}, {0, 0, "b"}});
  Report early;
  rec.check(early, kAll, /*complete=*/false);
  EXPECT_TRUE(early.ok()) << early.text();  // validity waits for quiesce
  Report r;
  rec.check(r, kAll);
  expect_only(r, "ab.validity");
}

TEST(AbOracles, CrashedOriginsUndeliveredSendIsNotFlagged) {
  // p3 broadcast, then crashed before anyone delivered it: p3 is not
  // correct, so validity does not quantify over its send.
  AbRecorder rec = sent_run();
  rec.sent(3, 0, to_bytes("doomed"));
  deliver(rec, {0, 1, 2}, {{0, 0, "a"}, {0, 0, "b"}, {1, 0, "c"}});
  const std::vector<ProcessId> survivors = {0, 1, 2};
  EXPECT_TRUE(rec.all_delivered(survivors));
  Report r;
  rec.check(r, survivors);
  EXPECT_TRUE(r.ok()) << r.text();
}

TEST(AbOracles, FaultyOriginDeliveredAtOneProcessBreaksAgreement) {
  // p3 broadcast, then crashed; only p1 delivered its message. Validity
  // and no-creation skip the faulty origin, so agreement must catch it.
  AbRecorder rec = sent_run();
  const std::vector<ProcessId> survivors = {0, 1, 2};
  deliver(rec, survivors, {{0, 0, "a"}, {0, 0, "b"}, {1, 0, "c"}});
  deliver(rec, {1}, {{3, 0, "doomed"}});
  Report early;
  rec.check(early, survivors, /*complete=*/false);
  EXPECT_TRUE(early.ok()) << early.text();  // agreement waits for quiesce
  Report r;
  rec.check(r, survivors);
  expect_only(r, "ab.agreement");
}

}  // namespace
}  // namespace ritas::sim::oracle
