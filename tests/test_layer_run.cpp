// sim::LayerRun, the one simulator layer driver: every layer completes
// and passes its oracles, and a run judged before it finished reports the
// missing decisions.
#include <gtest/gtest.h>

#include "sim_helpers.h"

namespace ritas {
namespace {

using sim::Cluster;
using sim::LayerRun;
using sim::Workload;
using test::fast_lan;

TEST(LayerRun, EveryLayerCompletesAndPassesItsOracles) {
  const Workload layers[] = {
      Workload::kReliableBroadcast,    Workload::kEchoBroadcast,
      Workload::kBinaryConsensus,      Workload::kMultiValuedConsensus,
      Workload::kVectorConsensus,      Workload::kAtomicBroadcast,
  };
  for (const Workload w : layers) {
    Cluster c(fast_lan(4, 31));
    LayerRun::Inputs in;
    in.bits = {true, false, true, true};
    for (ProcessId p = 0; p < 4; ++p) {
      in.values.push_back(to_bytes("value-" + std::to_string(p)));
    }
    in.calls = {{1, {to_bytes("payload")}}};
    std::size_t outcomes = 0;
    LayerRun run(c, w, 1, std::move(in),
                 [&outcomes](const LayerRun::Outcome&) { ++outcomes; });
    ASSERT_TRUE(c.run_until([&] { return run.done(c.correct_set()); },
                            test::kDeadline))
        << sim::workload_name(w);
    c.run_all();
    sim::oracle::Report r;
    run.check(r, c.correct_set(), /*complete=*/true);
    EXPECT_TRUE(r.ok()) << sim::workload_name(w) << ": " << r.text();
    // One outcome per process: a decision, or the one broadcast delivered.
    EXPECT_EQ(outcomes, 4u) << sim::workload_name(w);
  }
}

TEST(LayerRun, UnfinishedBinaryConsensusFailsTheCompleteCheck) {
  // A bench that stops at p0's decision and averages the run in would
  // never notice the rest; the complete check names every undecided
  // correct process, while the safety-only check stays clean.
  Cluster c(fast_lan(4, 32));
  LayerRun run(c, Workload::kBinaryConsensus, 1,
               {.bits = {true, true, true, true}});
  for (int i = 0; i < 10; ++i) c.scheduler().step();
  ASSERT_FALSE(run.done(c.correct_set()));

  sim::oracle::Report safety;
  run.check(safety, c.correct_set(), /*complete=*/false);
  EXPECT_TRUE(safety.ok()) << safety.text();

  sim::oracle::Report complete;
  run.check(complete, c.correct_set(), /*complete=*/true);
  ASSERT_FALSE(complete.ok());
  EXPECT_NE(complete.text().find("bc.termination: p0 never decided"),
            std::string::npos)
      << complete.text();
}

}  // namespace
}  // namespace ritas
