#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace mrca::sim {
namespace {

TEST(EventQueue, EmptyByDefault) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_THROW(queue.next_time(), std::logic_error);
  EXPECT_THROW(queue.run_next(), std::logic_error);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&] { order.push_back(3); });
  queue.schedule(10, [&] { order.push_back(1); });
  queue.schedule(20, [&] { order.push_back(2); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.run_next();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue queue;
  queue.schedule(42, [] {});
  EXPECT_EQ(queue.next_time(), 42);
  EXPECT_EQ(queue.run_next(), 42);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(1, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue queue;
  const EventId id = queue.schedule(1, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(kInvalidEvent));
  EXPECT_FALSE(queue.cancel(99999));
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1, [&] { order.push_back(1); });
  const EventId id = queue.schedule(2, [&] { order.push_back(2); });
  queue.schedule(3, [&] { order.push_back(3); });
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.run_next(), 1);
  EXPECT_EQ(queue.next_time(), 3);
  queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  std::vector<SimTime> fired;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    fired.push_back(t);
    if (t < 5) {
      queue.schedule(t + 1, [&chain, t] { chain(t + 1); });
    }
  };
  queue.schedule(1, [&chain] { chain(1); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(fired, (std::vector<SimTime>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, EventCanCancelAnotherEvent) {
  EventQueue queue;
  bool second_fired = false;
  EventId second = kInvalidEvent;
  second = queue.schedule(10, [&] { second_fired = true; });
  queue.schedule(5, [&] { queue.cancel(second); });
  while (!queue.empty()) queue.run_next();
  EXPECT_FALSE(second_fired);
}

TEST(EventQueue, StaleIdCannotCancelTheEventReusingItsSlot) {
  EventQueue queue;
  int fired = 0;
  // One pending event at a time, so every schedule reuses the same slot.
  const EventId cancelled = queue.schedule(1, [&] { fired += 100; });
  ASSERT_TRUE(queue.cancel(cancelled));
  const EventId ran = queue.schedule(2, [&] { fired += 1; });
  EXPECT_NE(ran, cancelled);
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_EQ(queue.size(), 1u);
  queue.run_next();
  EXPECT_EQ(fired, 1);

  const EventId alive = queue.schedule(3, [&] { fired += 10; });
  EXPECT_NE(alive, ran);
  EXPECT_FALSE(queue.cancel(ran));
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.run_next(), 3);
  EXPECT_EQ(fired, 11);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SizeTracksMixedCancelFireAndRecycle) {
  EventQueue queue;
  std::vector<EventId> ids;          // every id ever issued
  std::vector<bool> pending;         // per issued id
  std::vector<bool> cancelled;       // per issued id
  std::vector<std::size_t> fired;    // issue index of each fired event
  std::size_t live = 0;
  for (std::size_t step = 0; step < 300; ++step) {
    const std::size_t index = ids.size();
    ids.push_back(queue.schedule(static_cast<SimTime>(step % 7),
                                 [&fired, index] { fired.push_back(index); }));
    pending.push_back(true);
    cancelled.push_back(false);
    ++live;
    if (step % 3 == 0) {
      // Cancel an id from a few steps back: sometimes pending, sometimes
      // already fired or cancelled with its slot since reused.
      const std::size_t victim = (step * 7) % ids.size();
      EXPECT_EQ(queue.cancel(ids[victim]), pending[victim]) << step;
      if (pending[victim]) {
        pending[victim] = false;
        cancelled[victim] = true;
        --live;
      }
    }
    if (step % 4 == 0 && live > 0) {
      queue.run_next();
      pending[fired.back()] = false;
      --live;
    }
    ASSERT_EQ(queue.size(), live) << step;
    ASSERT_EQ(queue.empty(), live == 0) << step;
  }
  while (!queue.empty()) {
    queue.run_next();
    pending[fired.back()] = false;
  }
  // Every event not cancelled fired exactly once; no cancelled one did.
  std::vector<int> times_fired(ids.size(), 0);
  for (const std::size_t index : fired) ++times_fired[index];
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(times_fired[i], cancelled[i] ? 0 : 1) << i;
  }
}

TEST(EventQueue, EqualTimeFifoHoldsAcrossRecycledSlots) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventId> first;
  for (int i = 0; i < 6; ++i) {
    first.push_back(queue.schedule(100, [&order, i] { order.push_back(i); }));
  }
  // Free slots in a scrambled order; the next events reuse them.
  for (const std::size_t victim : {4u, 1u, 5u, 0u}) queue.cancel(first[victim]);
  for (int i = 6; i < 12; ++i) {
    queue.schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 6, 7, 8, 9, 10, 11}));
}

TEST(SimTimeConversions, RoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kNanosPerSecond);
  EXPECT_EQ(from_seconds(50e-6), 50000);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(0.125)), 0.125);
  EXPECT_EQ(from_micros(20.0), 20000);
}

}  // namespace
}  // namespace mrca::sim
