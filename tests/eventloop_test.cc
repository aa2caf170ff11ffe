#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "eventloop/event_loop.h"

namespace apollo {
namespace {

TEST(EventLoopSim, SingleShotTimerFires) {
  SimClock clock;
  EventLoop loop(clock, /*auto_advance=*/true, &clock);
  int fired = 0;
  loop.AddTimer(Seconds(1), [&](TimeNs) {
    ++fired;
    return kStopTimer;
  });
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.Now(), Seconds(1));
  EXPECT_EQ(loop.TimerCount(), 0u);
}

TEST(EventLoopSim, RepeatingTimerFiresUntilEndTime) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  int fired = 0;
  loop.AddTimer(Seconds(1), [&](TimeNs) {
    ++fired;
    return Seconds(1);
  });
  loop.Run(Seconds(10));
  EXPECT_EQ(fired, 10);
}

TEST(EventLoopSim, CallbackAdjustsOwnInterval) {
  // Adaptive-interval shape: interval doubles each firing.
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  std::vector<TimeNs> fire_times;
  TimeNs interval = Seconds(1);
  loop.AddTimer(Seconds(1), [&](TimeNs now) {
    fire_times.push_back(now);
    interval *= 2;
    return interval;
  });
  loop.Run(Seconds(16));
  // Fires at 1, 3 (1+2), 7 (3+4), 15 (7+8).
  ASSERT_EQ(fire_times.size(), 4u);
  EXPECT_EQ(fire_times[0], Seconds(1));
  EXPECT_EQ(fire_times[1], Seconds(3));
  EXPECT_EQ(fire_times[2], Seconds(7));
  EXPECT_EQ(fire_times[3], Seconds(15));
}

TEST(EventLoopSim, MultipleTimersInterleaveByDeadline) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  std::vector<int> order;
  loop.AddTimer(Seconds(2), [&](TimeNs) {
    order.push_back(2);
    return kStopTimer;
  });
  loop.AddTimer(Seconds(1), [&](TimeNs) {
    order.push_back(1);
    return kStopTimer;
  });
  loop.AddTimer(Seconds(3), [&](TimeNs) {
    order.push_back(3);
    return kStopTimer;
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopSim, EqualDeadlinesFireFifo) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.AddTimer(Seconds(1), [&order, i](TimeNs) {
      order.push_back(i);
      return kStopTimer;
    });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopSim, CancelPreventsFiring) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  int fired = 0;
  const TimerId id = loop.AddTimer(Seconds(1), [&](TimeNs) {
    ++fired;
    return Seconds(1);
  });
  loop.CancelTimer(id);
  loop.Run(Seconds(5));
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopSim, CancelFromInsideOtherCallback) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  int victim_fired = 0;
  const TimerId victim = loop.AddTimer(Seconds(2), [&](TimeNs) {
    ++victim_fired;
    return Seconds(1);
  });
  loop.AddTimer(Seconds(1), [&](TimeNs) {
    loop.CancelTimer(victim);
    return kStopTimer;
  });
  loop.Run(Seconds(10));
  EXPECT_EQ(victim_fired, 0);
}

TEST(EventLoopSim, TimersDueAfterEndTimeDoNotFire) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  int fired = 0;
  loop.AddTimer(Seconds(5), [&](TimeNs) {
    ++fired;
    return kStopTimer;
  });
  loop.Run(Seconds(3));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.TimerCount(), 1u);
}

TEST(EventLoopSim, PostedTasksRunBeforeTimers) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  std::vector<std::string> order;
  loop.AddTimer(0, [&](TimeNs) {
    order.push_back("timer");
    return kStopTimer;
  });
  loop.Post([&] { order.push_back("task"); });
  loop.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "task");
}

TEST(EventLoopSim, AddTimerFromCallback) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  int child_fired = 0;
  loop.AddTimer(Seconds(1), [&](TimeNs) {
    loop.AddTimer(Seconds(1), [&](TimeNs) {
      ++child_fired;
      return kStopTimer;
    });
    return kStopTimer;
  });
  loop.Run(Seconds(5));
  EXPECT_EQ(child_fired, 1);
}

TEST(EventLoopSim, ZeroDelayTimerFiresAtCurrentTime) {
  SimClock clock(Seconds(9));
  EventLoop loop(clock, true, &clock);
  TimeNs fired_at = -1;
  loop.AddTimer(0, [&](TimeNs now) {
    fired_at = now;
    return kStopTimer;
  });
  loop.Run();
  EXPECT_EQ(fired_at, Seconds(9));
}

TEST(EventLoopReal, TimerFiresInRealTime) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  std::atomic<int> fired{0};
  loop.AddTimer(Millis(5), [&](TimeNs) {
    ++fired;
    return kStopTimer;
  });
  loop.Run();
  EXPECT_EQ(fired.load(), 1);
}

TEST(EventLoopReal, StopFromAnotherThread) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  loop.AddTimer(Seconds(60), [&](TimeNs) { return kStopTimer; });
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.Stop();
  });
  const auto start = std::chrono::steady_clock::now();
  loop.Run(std::numeric_limits<TimeNs>::max(), /*stop_when_idle=*/false);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopper.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(EventLoopReal, RepeatingTimerApproximatesInterval) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  std::atomic<int> fired{0};
  loop.AddTimer(0, [&](TimeNs) -> TimeNs {
    if (++fired >= 5) return kStopTimer;
    return Millis(2);
  });
  loop.Run();
  EXPECT_EQ(fired.load(), 5);
}

// --- fd watching (real-time loops only) ---

// A pipe pair for fd-readiness tests.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
};

TEST(EventLoopFd, ReadableCallbackFires) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  std::uint32_t seen_events = 0;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [&](std::uint32_t ev) {
    seen_events = ev;
    char buf[8];
    EXPECT_EQ(::read(pipe.reader(), buf, sizeof(buf)), 1);
    loop.Stop();
  }));
  EXPECT_EQ(loop.FdCount(), 1u);
  ASSERT_EQ(::write(pipe.writer(), "x", 1), 1);
  loop.Run(std::numeric_limits<TimeNs>::max(), /*stop_when_idle=*/false);
  EXPECT_TRUE(seen_events & kFdReadable);
  EXPECT_TRUE(loop.RemoveFd(pipe.reader()));
  EXPECT_EQ(loop.FdCount(), 0u);
}

TEST(EventLoopFd, WritableCallbackFires) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  std::atomic<int> fired{0};
  // An empty pipe's write end is immediately writable.
  ASSERT_TRUE(loop.AddFd(pipe.writer(), kFdWritable, [&](std::uint32_t ev) {
    EXPECT_TRUE(ev & kFdWritable);
    ++fired;
    loop.RemoveFd(pipe.writer());
    loop.Stop();
  }));
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(loop.FdCount(), 0u);
}

TEST(EventLoopFd, CallbackClosesItsOwnFd) {
  // Regression: a callback that removes and closes its own fd mid-dispatch
  // must not crash the loop or corrupt the registry.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  int fired = 0;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [&](std::uint32_t) {
    ++fired;
    EXPECT_TRUE(loop.RemoveFd(pipe.reader()));
    ::close(pipe.reader());
    pipe.fds[0] = -1;
    loop.Stop();
  }));
  ASSERT_EQ(::write(pipe.writer(), "x", 1), 1);
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.FdCount(), 0u);
  // The loop stays healthy: a fresh registration still dispatches.
  loop.ClearStop();
  Pipe second;
  ASSERT_TRUE(loop.AddFd(second.reader(), kFdReadable, [&](std::uint32_t) {
    ++fired;
    loop.RemoveFd(second.reader());
    loop.Stop();
  }));
  ASSERT_EQ(::write(second.writer(), "y", 1), 1);
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopFd, CallbackRemovesSiblingFdInSameBatch) {
  // Two fds become ready in the same epoll batch; the first callback
  // dispatched removes (and closes) BOTH fds. The generation tokens must
  // discard the sibling's now-stale event instead of dispatching it.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe a;
  Pipe b;
  std::atomic<int> invocations{0};
  auto nuke_both = [&](std::uint32_t) {
    ++invocations;
    loop.RemoveFd(a.reader());
    loop.RemoveFd(b.reader());
    loop.Stop();
  };
  ASSERT_TRUE(loop.AddFd(a.reader(), kFdReadable, nuke_both));
  ASSERT_TRUE(loop.AddFd(b.reader(), kFdReadable, nuke_both));
  ASSERT_EQ(::write(a.writer(), "x", 1), 1);
  ASSERT_EQ(::write(b.writer(), "x", 1), 1);
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(invocations.load(), 1);
  EXPECT_EQ(loop.FdCount(), 0u);
}

TEST(EventLoopFd, ReentrantStopSkipsRestOfBatch) {
  // Stop() from inside an fd callback must return from Run() without
  // dispatching the remaining ready callbacks of the same batch.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe a;
  Pipe b;
  std::atomic<int> invocations{0};
  auto stop_now = [&](std::uint32_t) {
    ++invocations;
    loop.Stop();
  };
  ASSERT_TRUE(loop.AddFd(a.reader(), kFdReadable, stop_now));
  ASSERT_TRUE(loop.AddFd(b.reader(), kFdReadable, stop_now));
  ASSERT_EQ(::write(a.writer(), "x", 1), 1);
  ASSERT_EQ(::write(b.writer(), "x", 1), 1);
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(invocations.load(), 1);
  // Level-triggered: after ClearStop the undispatched sibling fires.
  loop.ClearStop();
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(invocations.load(), 2);
  loop.RemoveFd(a.reader());
  loop.RemoveFd(b.reader());
}

TEST(EventLoopFd, PostWakesLoopBlockedOnFds) {
  // With an fd registered (and never ready) the loop blocks in epoll_wait;
  // Post() from another thread must wake it promptly.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [](std::uint32_t) {}));
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.Post([&] { loop.Stop(); });
  });
  const auto start = std::chrono::steady_clock::now();
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  poster.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  loop.RemoveFd(pipe.reader());
}

TEST(EventLoopFd, TimerFiresOnTimeWhileFdEventsInterruptTheWait) {
  // A 1.3 ms repeating timer on a loop whose fd turns readable every
  // 4.1 ms: a wait is either a fractional-millisecond wait for the timer
  // or, after an fd event cut it short, a re-wait for the remainder. A
  // millisecond-granular wait (rounded up) made the timer fire up to 1 ms
  // late; both must be waited exactly.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [&](std::uint32_t) {
    char buf[64];
    while (::read(pipe.reader(), buf, sizeof(buf)) > 0) {
    }
  }));
  ASSERT_EQ(::fcntl(pipe.reader(), F_SETFL, O_NONBLOCK), 0);
  constexpr TimeNs kPeriod = 1300 * kNsPerUs;
  std::vector<double> late_us;
  TimeNs due = clock.Now() + kPeriod;
  loop.AddTimer(kPeriod, [&](TimeNs now) -> TimeNs {
    late_us.push_back(static_cast<double>(now - due) / 1e3);
    if (late_us.size() >= 40) {
      loop.Stop();
      return kStopTimer;
    }
    due = clock.Now() + kPeriod;
    return kPeriod;
  });
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!done.load()) {
      const char byte = 1;
      [[maybe_unused]] ssize_t n = ::write(pipe.writer(), &byte, 1);
      std::this_thread::sleep_for(std::chrono::microseconds(4100));
    }
  });
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  done.store(true);
  writer.join();
  loop.RemoveFd(pipe.reader());
  ASSERT_EQ(late_us.size(), 40u);
  std::sort(late_us.begin(), late_us.end());
  EXPECT_LT(late_us[late_us.size() / 2], 300.0)
      << "median timer lateness (us) with fd traffic";
}

TEST(EventLoopFd, LoopThreadPostRunsBeforeTheNextWait) {
  // No timers: the loop blocks for whole 50 ms chunks. A task posted on
  // the loop thread does not write the wakeup eventfd, so the loop must
  // run it (and a task that task posts) before it blocks again.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  TimeNs fd_seen = 0;
  TimeNs chained_ran = 0;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [&](std::uint32_t) {
    char buf[8];
    [[maybe_unused]] ssize_t n = ::read(pipe.reader(), buf, sizeof(buf));
    fd_seen = clock.Now();
    loop.Post([&] {
      loop.Post([&] {
        chained_ran = clock.Now();
        loop.Stop();
      });
    });
  }));
  const char byte = 1;
  ASSERT_EQ(::write(pipe.writer(), &byte, 1), 1);
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  loop.RemoveFd(pipe.reader());
  ASSERT_NE(fd_seen, 0);
  ASSERT_NE(chained_ran, 0);
  EXPECT_LT(chained_ran - fd_seen, 20 * kNsPerMs);
}

TEST(EventLoopFd, CrossThreadPostsAllRunWithCoalescedWakes) {
  // A burst of cross-thread posts shares eventfd writes while one wake is
  // pending; none of the tasks may be stranded by that.
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [](std::uint32_t) {}));
  std::atomic<int> ran{0};
  constexpr int kPosts = 2000;
  std::thread poster([&] {
    for (int i = 0; i < kPosts; ++i) {
      loop.Post([&] { ran.fetch_add(1); });
      if (i % 100 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    loop.Post([&] { loop.Stop(); });
  });
  const auto start = std::chrono::steady_clock::now();
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  poster.join();
  EXPECT_EQ(ran.load(), kPosts);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            2000);
  loop.RemoveFd(pipe.reader());
}

TEST(EventLoopFd, AddFdRejectedOnAutoAdvanceLoop) {
  // Fd watching is wall-clock; an auto-advancing sim loop must refuse it.
  SimClock clock;
  EventLoop loop(clock, /*auto_advance=*/true, &clock);
  Pipe pipe;
  EXPECT_FALSE(loop.AddFd(pipe.reader(), kFdReadable, [](std::uint32_t) {}));
  EXPECT_EQ(loop.FdCount(), 0u);
}

TEST(EventLoopFd, AddFdRejectsDuplicateRegistration) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  ASSERT_TRUE(loop.AddFd(pipe.reader(), kFdReadable, [](std::uint32_t) {}));
  EXPECT_FALSE(loop.AddFd(pipe.reader(), kFdReadable, [](std::uint32_t) {}));
  EXPECT_EQ(loop.FdCount(), 1u);
  EXPECT_TRUE(loop.RemoveFd(pipe.reader()));
  EXPECT_FALSE(loop.RemoveFd(pipe.reader()));
}

TEST(EventLoopFd, UpdateFdSwitchesInterestSet) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  Pipe pipe;
  std::atomic<int> fired{0};
  // Start watching readability only: the empty pipe is quiet.
  ASSERT_TRUE(loop.AddFd(pipe.writer(), kFdReadable, [&](std::uint32_t ev) {
    EXPECT_TRUE(ev & kFdWritable);
    ++fired;
    loop.Stop();
  }));
  // A timer flips the interest to writability, which is instantly ready.
  loop.AddTimer(Millis(5), [&](TimeNs) {
    EXPECT_TRUE(loop.UpdateFd(pipe.writer(), kFdWritable));
    return kStopTimer;
  });
  loop.Run(std::numeric_limits<TimeNs>::max(), false);
  EXPECT_EQ(fired.load(), 1);
  loop.RemoveFd(pipe.writer());
}

}  // namespace
}  // namespace apollo
