#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "sim/time.hpp"

namespace myrtus::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::Millis(3).ns, 3'000'000);
  EXPECT_EQ(SimTime::Seconds(2).ns, 2'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::Millis(1500).ToSecondsF(), 1.5);
  EXPECT_EQ(SimTime::FromSeconds(0.001).ns, 1'000'000);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ((SimTime::Millis(2) + SimTime::Millis(3)).ns, SimTime::Millis(5).ns);
  EXPECT_LT(SimTime::Millis(2), SimTime::Millis(3));
  EXPECT_EQ(SimTime::Micros(5) * 3, SimTime::Micros(15));
}

TEST(Engine, ExecutesInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(SimTime::Millis(30), [&] { order.push_back(3); });
  e.ScheduleAt(SimTime::Millis(10), [&] { order.push_back(1); });
  e.ScheduleAt(SimTime::Millis(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), SimTime::Millis(30));
}

TEST(Engine, FifoTieBreakAtEqualTimestamps) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  SimTime seen = SimTime::Zero();
  e.ScheduleAt(SimTime::Millis(10), [&] {
    e.ScheduleAfter(SimTime::Millis(5), [&] { seen = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(seen, SimTime::Millis(15));
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine e;
  SimTime seen{-1};
  e.ScheduleAt(SimTime::Millis(10), [&] {
    e.ScheduleAt(SimTime::Millis(1), [&] { seen = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(seen, SimTime::Millis(10));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventHandle h = e.ScheduleAt(SimTime::Millis(10), [&] { fired = true; });
  e.Cancel(h);
  e.Run();
  EXPECT_FALSE(fired);
}

TEST(Engine, PeriodicFiresUntilCancelled) {
  Engine e;
  int count = 0;
  EventHandle h = e.SchedulePeriodic(SimTime::Millis(10), [&] { ++count; });
  e.RunUntil(SimTime::Millis(55));
  EXPECT_EQ(count, 5);
  e.Cancel(h);
  e.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(count, 5);
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine e;
  int count = 0;
  EventHandle h;
  h = e.SchedulePeriodic(SimTime::Millis(10), [&] {
    if (++count == 3) e.Cancel(h);
  });
  e.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilAdvancesClockToDeadline) {
  Engine e;
  e.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(e.Now(), SimTime::Millis(100));
}

TEST(Engine, RunUntilLeavesFutureEventsPending) {
  Engine e;
  bool fired = false;
  e.ScheduleAt(SimTime::Millis(200), [&] { fired = true; });
  e.RunUntil(SimTime::Millis(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending_events(), 1u);
  e.Run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int count = 0;
  e.SchedulePeriodic(SimTime::Millis(1), [&] {
    if (++count == 10) e.Stop();
  });
  e.Run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunWithEventLimit) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 100; ++i) {
    e.ScheduleAt(SimTime::Millis(i), [&] { ++count; });
  }
  EXPECT_EQ(e.Run(7), 7u);
  EXPECT_EQ(count, 7);
}

// Regression: a zero (or negative) period used to re-enqueue the task at the
// same timestamp forever, hanging Run()/RunUntil(). It is now clamped to the
// 1 ns tick, so the loop advances and terminates.
TEST(Engine, SchedulePeriodicClampsNonPositivePeriod) {
  Engine e;
  int zero_fires = 0;
  const EventHandle h =
      e.SchedulePeriodic(SimTime::Zero(), [&] { ++zero_fires; });
  EXPECT_TRUE(h.valid());
  e.RunUntil(SimTime::Nanos(10));
  EXPECT_EQ(zero_fires, 10);  // one fire per clamped 1 ns tick
  e.Cancel(h);

  int negative_fires = 0;
  e.SchedulePeriodic(SimTime::Nanos(-5), [&] { ++negative_fires; });
  e.RunUntil(e.Now() + SimTime::Nanos(3));
  EXPECT_EQ(negative_fires, 3);
}

}  // namespace
}  // namespace myrtus::sim
