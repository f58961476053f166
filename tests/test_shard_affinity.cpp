// Shard-affinity runtime checker: epoch adopt/release semantics, legal
// cross-thread handoff *between* epochs (the sweep pattern: construct on
// one worker, run there, inspect results from the main thread), the
// inactive-checker grace for setup code, and -- in debug builds -- the
// abort on a genuine cross-shard touch of a live epoch. The static half
// of the contract (clang -Wthread-safety) is exercised by the
// tests/tsa/ compile fixtures instead.
#include <gtest/gtest.h>

#include <thread>

#include "core/annotations.hpp"
#include "sim/simulation.hpp"

namespace qoesim {
namespace {

TEST(ShardAffinityTest, AssertHeldPassesWhileNoEpochIsLive) {
  // Setup code (binding flows, building topology) runs before the first
  // epoch; assert_held must not require ownership then.
  ShardAffinity affinity;
  affinity.assert_held();  // no epoch live: legal from any thread
  std::thread other([&] { affinity.assert_held(); });
  other.join();
}

TEST(ShardAffinityTest, OwningThreadMayReenterItsEpoch) {
  ShardAffinity affinity;
  affinity.begin_epoch();
  affinity.assert_held();
  affinity.begin_epoch();  // nested epoch on the owning thread: fine
  affinity.assert_held();
  affinity.end_epoch();
}

TEST(ShardAffinityTest, EpochMayMigrateBetweenRuns) {
  // Ownership is per-epoch, not permanent: once end_epoch releases it,
  // any thread may adopt the next epoch.
  ShardAffinity affinity;
  affinity.begin_epoch();
  affinity.end_epoch();
  std::thread other([&] {
    affinity.begin_epoch();
    affinity.assert_held();
    affinity.end_epoch();
  });
  other.join();
  affinity.begin_epoch();  // and it may come back
  affinity.end_epoch();
}

TEST(ShardAffinityTest, ShardGuardAdoptsAndReleases) {
  ShardAffinity affinity;
  {
    const ShardGuard epoch(&affinity);
    affinity.assert_held();
  }
  // Guard released the epoch: another thread may now adopt.
  std::thread other([&] {
    const ShardGuard epoch(&affinity);
    affinity.assert_held();
  });
  other.join();
}

TEST(ShardAffinityTest, SimulationRunAdoptsTheCallingThread) {
  // The epoch drivers hold the shard for the duration of run(); after
  // run() returns the simulation may be inspected (or re-run) anywhere.
  Simulation sim;
  bool fired = false;
  sim.at(Time::seconds(1), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  std::thread other([&] { sim.shard().assert_held(); });
  other.join();
}

TEST(ShardAffinityTest, SchedulerSteppedHereMayRunElsewhere) {
  // step() is a one-event epoch: it releases the shard when it returns,
  // so a scheduler stepped on one thread may run on another afterwards.
  // Debug builds abort with "cross-shard access" if step() keeps it.
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(Time::seconds(1), [&fired] { ++fired; });
  sched.schedule_at(Time::seconds(2), [&fired] { ++fired; });
  ASSERT_TRUE(sched.step());
  std::thread other([&] { sched.run_until(Time::seconds(3)); });
  other.join();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), Time::seconds(3));
}

#ifndef NDEBUG
TEST(ShardAffinityDeathTest, CrossThreadTouchOfLiveEpochAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ShardAffinity affinity;
  affinity.begin_epoch();  // this thread owns the live epoch
  EXPECT_DEATH(
      {
        std::thread intruder([&] { affinity.assert_held(); });
        intruder.join();
      },
      "cross-shard access");
  affinity.end_epoch();
}

TEST(ShardAffinityDeathTest, SecondThreadCannotAdoptALiveEpoch) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ShardAffinity affinity;
  affinity.begin_epoch();
  EXPECT_DEATH(
      {
        std::thread intruder([&] { affinity.begin_epoch(); });
        intruder.join();
      },
      "cross-shard access");
  affinity.end_epoch();
}
#endif  // NDEBUG

}  // namespace
}  // namespace qoesim
