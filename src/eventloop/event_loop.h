// Timer- and fd-driven event loop — the libuv substitute.
//
// SCoRe's Monitor Hooks re-arm themselves with a new interval after every
// poll (adaptive AIMD intervals), so timer callbacks here return the delay
// until their next firing, or kStopTimer to cancel.
//
// The loop runs against any Clock. When constructed with auto_advance=true
// over a SimClock, the loop fast-forwards virtual time to the next deadline
// instead of sleeping, which lets a 30-minute monitoring replay finish in
// milliseconds (Figures 8-10).
//
// File descriptors: AddFd() registers a non-blocking fd with an epoll
// instance owned by the loop; while any fd is registered, the loop waits in
// epoll_pwait2 (nanosecond timeout, so a wait cut short by an fd event
// re-waits exactly until the next timer) instead of sleeping, dispatching
// readiness callbacks between timer firings. Fd watching is a real-time
// facility (epoll timeouts are wall-clock), so it is not available on an
// auto-advancing SimClock loop — the network fabric runs daemons on
// RealClock loops. Registrations carry a generation token, so a callback
// that removes or closes any fd (including its own) during a dispatch
// batch never causes a stale or misdirected callback: pending events whose
// token no longer resolves are skipped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace apollo {

using TimerId = std::uint64_t;

// Return value of a timer callback: delay until the next firing (>=0), or
// kStopTimer to cancel the timer.
constexpr TimeNs kStopTimer = -1;

// Readiness bits passed to fd callbacks (mirrors EPOLLIN/EPOLLOUT plus an
// error/hangup summary so callers need not include <sys/epoll.h>).
inline constexpr std::uint32_t kFdReadable = 1u << 0;
inline constexpr std::uint32_t kFdWritable = 1u << 1;
inline constexpr std::uint32_t kFdError = 1u << 2;  // EPOLLERR | EPOLLHUP

class EventLoop {
 public:
  using TimerCallback = std::function<TimeNs(TimeNs now)>;
  using Task = std::function<void()>;
  // Invoked on the loop thread with the kFd* readiness bits that fired.
  using FdCallback = std::function<void(std::uint32_t events)>;

  // `clock` must outlive the loop. When `auto_advance` is true, `clock` must
  // be a SimClock and the loop advances it to each next deadline.
  explicit EventLoop(Clock& clock, bool auto_advance = false,
                     SimClock* sim = nullptr);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers a timer that first fires at Now() + initial_delay.
  TimerId AddTimer(TimeNs initial_delay, TimerCallback callback);

  // Cancels a timer. Safe to call from inside a callback or another thread.
  void CancelTimer(TimerId id);

  // Enqueues a task to run before the next timer dispatch. From the loop
  // thread this only queues (Run drains tasks before it waits again);
  // from another thread it also wakes a loop blocked in epoll, and wakes
  // coalesce while one is already pending.
  void Post(Task task);

  // --- fd watching (real-time loops) ---

  // Watches a non-blocking fd for the kFd* events in `events`; `callback`
  // runs on the loop thread each time the fd is ready. The fd is not owned:
  // call RemoveFd before closing it (calling RemoveFd from inside the fd's
  // own callback — or any other callback of the same batch — is safe).
  // Fails on an auto-advancing sim loop or if the fd is already watched.
  bool AddFd(int fd, std::uint32_t events, FdCallback callback);

  // Changes the watched event set of a registered fd.
  bool UpdateFd(int fd, std::uint32_t events);

  // Stops watching `fd`. Safe from inside callbacks; pending readiness
  // events for the removed registration are discarded, so the caller may
  // close the fd immediately after.
  bool RemoveFd(int fd);

  // Number of watched fds.
  std::size_t FdCount() const;

  // Runs the loop on the calling thread until Stop() or, when
  // stop_when_idle, until no timers/tasks/fds remain. `end_time` bounds the
  // clock time processed (timers due after end_time do not fire).
  void Run(TimeNs end_time = std::numeric_limits<TimeNs>::max(),
           bool stop_when_idle = true);

  // Requests Run() to return as soon as possible — before any further
  // timer or fd callback is dispatched, including the rest of the current
  // batch. Thread-safe and safe from inside callbacks (re-entrant stop).
  // The stop request persists across Run() calls; callers that restart the
  // loop must ClearStop() before the next Run() (done by
  // ApolloService::Start).
  void Stop();

  // Clears a pending stop request. Call from the owning thread before
  // re-running a previously stopped loop.
  void ClearStop();

  // Number of live timers.
  std::size_t TimerCount() const;

  Clock& clock() { return clock_; }

 private:
  struct TimerEntry {
    TimeNs deadline;
    std::uint64_t sequence;  // tie-break: FIFO among equal deadlines
    TimerId id;
    bool operator>(const TimerEntry& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return sequence > other.sequence;
    }
  };

  struct FdEntry {
    std::uint64_t token;  // generation stamp carried in epoll_data
    std::uint32_t events;
    std::shared_ptr<FdCallback> callback;
  };

  // Creates the epoll instance + wakeup eventfd on first use. Caller holds
  // mu_. Returns false if the kernel refuses (loop then has no fd support).
  bool EnsureEpollLocked();

  // Blocks in epoll until `deadline` (bounded by the stop-poll chunk),
  // then dispatches ready fd callbacks. Returns after one wait+dispatch
  // round.
  void WaitAndDispatchFds(TimeNs deadline);

  void RunLoop(TimeNs end_time, bool stop_when_idle);

  // Writes the wakeup eventfd unless a wake is already pending.
  void Wake();

  Clock& clock_;
  SimClock* sim_;
  bool auto_advance_;

  mutable std::mutex mu_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      heap_;
  std::map<TimerId, TimerCallback> timers_;  // erased entries = cancelled
  std::vector<Task> tasks_;
  TimerId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;

  // Fd registry. Keyed by fd; tokens invalidate stale epoll events after a
  // RemoveFd (or an fd number reused by a fresh AddFd).
  std::map<int, FdEntry> fds_;
  std::map<std::uint64_t, int> fd_by_token_;
  std::uint64_t next_token_ = 1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  // Thread inside Run() (default id when not running): Post from it skips
  // the eventfd write.
  std::atomic<std::thread::id> run_thread_{};
  // Set by the Wake that writes the eventfd; cleared by Run just before
  // it drains tasks, so one write serves every Post in between.
  std::atomic<bool> wake_pending_{false};
};

}  // namespace apollo
