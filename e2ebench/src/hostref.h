// Host reference: a trip through the kernel paths a request to the daemon
// takes, with no Apollo code involved, timed alongside a workload so its
// latencies can be stated in the host's own trips.
//
// On a shared VM the cost of those paths drifts over minutes with the
// host's load: waking an idle vCPU, starting a thread, a TCP handshake and
// a round trip. Every latency of a run moves with it. ConnectProbe pays
// the same costs, the way a scatter-gather leg opens: a new thread
// connects a fresh loopback TCP connection to an accepting thread, sends
// 64 bytes, reads the echo and closes.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <thread>

#include "gen.h"

namespace e2e {

class ConnectProbe {
 public:
  // Listens on an ephemeral loopback port and starts the echo thread;
  // ok() is false when that failed.
  ConnectProbe() {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener_ < 0) return;
    addr_.sin_family = AF_INET;
    addr_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr_);
    auto* sa = reinterpret_cast<sockaddr*>(&addr_);
    if (::bind(listener_, sa, sizeof(addr_)) != 0 || ::listen(listener_, 16) != 0 ||
        ::getsockname(listener_, sa, &len) != 0) {
      ::close(listener_);
      listener_ = -1;
      return;
    }
    server_ = std::thread([this] {
      while (true) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd < 0) return;
        char buf[64];
        std::size_t got = 0;
        while (got < sizeof(buf)) {
          const ssize_t r = ::read(fd, buf + got, sizeof(buf) - got);
          if (r <= 0) break;
          got += static_cast<std::size_t>(r);
        }
        if (got == sizeof(buf)) (void)!::write(fd, buf, sizeof(buf));
        ::close(fd);
      }
    });
  }
  ~ConnectProbe() {
    if (listener_ >= 0) ::shutdown(listener_, SHUT_RDWR);
    if (server_.joinable()) server_.join();
    if (listener_ >= 0) ::close(listener_);
  }

  ConnectProbe(const ConnectProbe&) = delete;
  ConnectProbe& operator=(const ConnectProbe&) = delete;

  bool ok() const { return listener_ >= 0; }

  // One trip, spawn to join, in microseconds; nullopt if it failed.
  std::optional<double> Trip() {
    if (listener_ < 0) return std::nullopt;
    bool ok = false;
    const Ns t0 = NowNs();
    std::thread([&] {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      char buf[64];
      std::memset(buf, 0x5a, sizeof(buf));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr_), sizeof(addr_)) == 0 &&
          ::write(fd, buf, sizeof(buf)) == static_cast<ssize_t>(sizeof(buf))) {
        std::size_t got = 0;
        while (got < sizeof(buf)) {
          const ssize_t r = ::read(fd, buf + got, sizeof(buf) - got);
          if (r <= 0) break;
          got += static_cast<std::size_t>(r);
        }
        ok = got == sizeof(buf);
      }
      ::close(fd);
    }).join();
    if (!ok) return std::nullopt;
    return static_cast<double>(NowNs() - t0) / 1e3;
  }

 private:
  int listener_ = -1;
  sockaddr_in addr_{};
  std::thread server_;
};

}  // namespace e2e
