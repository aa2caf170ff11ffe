#include "eventloop/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <ctime>

namespace apollo {

namespace {

// Bounded wait chunk so Stop() from another thread is honored promptly even
// when the next timer is far away (and as the eventfd-less fallback poll).
constexpr TimeNs kMaxSleepChunk = 50 * kNsPerMs;

std::uint32_t ToEpollEvents(std::uint32_t events) {
  std::uint32_t out = 0;
  if (events & kFdReadable) out |= EPOLLIN;
  if (events & kFdWritable) out |= EPOLLOUT;
  return out;
}

std::uint32_t FromEpollEvents(std::uint32_t events) {
  std::uint32_t out = 0;
  if (events & EPOLLIN) out |= kFdReadable;
  if (events & EPOLLOUT) out |= kFdWritable;
  if (events & (EPOLLERR | EPOLLHUP)) out |= kFdError;
  return out;
}

// Waits up to `wait_ns` with nanosecond precision. epoll_wait takes whole
// milliseconds, and rounding the remaining wait up made every re-wait
// after an fd event overshoot the next timer by up to 1 ms; it stays as
// the fallback for kernels without epoll_pwait2 (pre-5.11).
int EpollWaitNs(int epoll_fd, epoll_event* events, int max_events,
                TimeNs wait_ns) {
  static std::atomic<bool> no_pwait2{false};
  if (!no_pwait2.load(std::memory_order_relaxed)) {
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait_ns / kNsPerSec);
    timeout.tv_nsec = static_cast<long>(wait_ns % kNsPerSec);
    const int n =
        ::epoll_pwait2(epoll_fd, events, max_events, &timeout, nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    no_pwait2.store(true, std::memory_order_relaxed);
  }
  return ::epoll_wait(epoll_fd, events, max_events,
                      static_cast<int>((wait_ns + kNsPerMs - 1) / kNsPerMs));
}

}  // namespace

EventLoop::EventLoop(Clock& clock, bool auto_advance, SimClock* sim)
    : clock_(clock), sim_(sim), auto_advance_(auto_advance) {
  if (auto_advance_) {
    assert(sim_ != nullptr && "auto_advance requires a SimClock");
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

TimerId EventLoop::AddTimer(TimeNs initial_delay, TimerCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  const TimerId id = next_id_++;
  timers_.emplace(id, std::move(callback));
  heap_.push(TimerEntry{clock_.Now() + initial_delay, next_seq_++, id});
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  timers_.erase(id);
}

void EventLoop::Post(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  if (run_thread_.load(std::memory_order_acquire) !=
      std::this_thread::get_id()) {
    Wake();
  }
}

bool EventLoop::EnsureEpollLocked() {
  if (epoll_fd_ >= 0) return true;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return false;
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // token 0 = internal wakeup
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
  return true;
}

bool EventLoop::AddFd(int fd, std::uint32_t events, FdCallback callback) {
  if (auto_advance_ || fd < 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!EnsureEpollLocked()) return false;
  if (fds_.count(fd) != 0) return false;
  const std::uint64_t token = next_token_++;
  epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  fds_.emplace(fd, FdEntry{token, events,
                           std::make_shared<FdCallback>(std::move(callback))});
  fd_by_token_.emplace(token, fd);
  return true;
}

bool EventLoop::UpdateFd(int fd, std::uint32_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  if (it->second.events == events) return true;
  epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.u64 = it->second.token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) return false;
  it->second.events = events;
  return true;
}

bool EventLoop::RemoveFd(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  fd_by_token_.erase(it->second.token);
  fds_.erase(it);
  // EBADF here means the caller closed the fd first — the registration is
  // gone from the kernel either way.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  return true;
}

std::size_t EventLoop::FdCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fds_.size();
}

void EventLoop::WaitAndDispatchFds(TimeNs deadline) {
  const TimeNs now = clock_.Now();
  const TimeNs wait_ns =
      std::min(std::max<TimeNs>(deadline - now, 0), kMaxSleepChunk);

  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoll_fd_ < 0) return;
  }
  do {
    n = EpollWaitNs(epoll_fd_, events, kMaxEvents, wait_ns);
  } while (n < 0 && errno == EINTR);

  for (int i = 0; i < n; ++i) {
    const std::uint64_t token = events[i].data.u64;
    if (token == 0) {
      // Internal wakeup: drain the eventfd counter.
      std::uint64_t count;
      while (::read(wake_fd_, &count, sizeof(count)) > 0) {
      }
      continue;
    }
    std::shared_ptr<FdCallback> callback;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Re-entrant stop: a callback earlier in this batch may have stopped
      // the loop — do not dispatch the rest.
      if (stop_requested_) return;
      // A callback earlier in this batch may have removed this fd (or
      // removed-and-readded the same fd number): the token no longer
      // resolves, so the event is stale and must be skipped.
      auto it = fd_by_token_.find(token);
      if (it == fd_by_token_.end()) continue;
      callback = fds_.at(it->second).callback;
    }
    (*callback)(FromEpollEvents(events[i].events));
  }
}

void EventLoop::Wake() {
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t written = ::write(wake_fd_, &one, sizeof(one));
  }
}

void EventLoop::Run(TimeNs end_time, bool stop_when_idle) {
  run_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  RunLoop(end_time, stop_when_idle);
  run_thread_.store(std::thread::id(), std::memory_order_release);
}

void EventLoop::RunLoop(TimeNs end_time, bool stop_when_idle) {
  for (;;) {
    // Drain posted tasks first. A Post after the clear writes the eventfd
    // again, so no task is left behind by a coalesced wake.
    wake_pending_.store(false, std::memory_order_release);
    std::vector<Task> pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending.swap(tasks_);
    }
    for (auto& task : pending) task();

    TimerEntry entry;
    TimerCallback callback;
    bool have_timer = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) return;
      // Pop cancelled entries.
      while (!heap_.empty() &&
             timers_.find(heap_.top().id) == timers_.end()) {
        heap_.pop();
      }
      if (heap_.empty()) {
        if (stop_when_idle && tasks_.empty() && fds_.empty()) return;
      } else if (heap_.top().deadline > end_time) {
        return;
      } else {
        entry = heap_.top();
        if (entry.deadline <= clock_.Now()) {
          heap_.pop();
          callback = timers_.at(entry.id);
          have_timer = true;
        }
      }
    }

    if (have_timer) {
      const TimeNs next_delay = callback(clock_.Now());
      std::lock_guard<std::mutex> lock(mu_);
      auto it = timers_.find(entry.id);
      if (it != timers_.end()) {
        if (next_delay == kStopTimer) {
          timers_.erase(it);
        } else {
          heap_.push(
              TimerEntry{clock_.Now() + next_delay, next_seq_++, entry.id});
        }
      }
      continue;
    }

    // Not due yet: wait for fds (or sleep, or fast-forward virtual time).
    TimeNs next_deadline;
    bool have_fds;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A Post from the loop thread (a task, timer or fd callback) did not
      // write the eventfd: run it before blocking.
      if (!tasks_.empty()) continue;
      have_fds = !fds_.empty();
      if (heap_.empty()) {
        if (stop_when_idle && !have_fds) return;
        next_deadline = clock_.Now() + kNsPerMs;
        // With fds but no timers, wait a full chunk per round instead of
        // spinning at 1ms (fd readiness interrupts the wait anyway).
        if (have_fds) next_deadline = clock_.Now() + kMaxSleepChunk;
      } else {
        next_deadline = heap_.top().deadline;
      }
    }
    if (next_deadline > end_time && !have_fds) return;
    if (auto_advance_) {
      sim_->AdvanceTo(next_deadline);
    } else if (have_fds) {
      WaitAndDispatchFds(std::min(next_deadline, end_time));
    } else {
      // Sleep in bounded chunks so Stop() from another thread is honored
      // promptly even when the next timer is far away.
      const TimeNs chunk_end =
          std::min(next_deadline, clock_.Now() + kMaxSleepChunk);
      clock_.SleepUntil(chunk_end);
    }
  }
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  Wake();
}

void EventLoop::ClearStop() {
  std::lock_guard<std::mutex> lock(mu_);
  stop_requested_ = false;
}

std::size_t EventLoop::TimerCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.size();
}

}  // namespace apollo
