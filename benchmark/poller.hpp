#pragma once
// Nonblocking epoll for the generator thread, which never sleeps: it polls.
// A generator that slept in epoll_wait let the scheduler wake server
// threads onto its core, and in some runs the closed loop then ran at half
// speed for tens of seconds; polling keeps the core to itself and sends a
// due frame within microseconds. Its CPU time is left out of
// cpu_ms_per_frame.

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace swc::bench {

[[noreturn]] inline void fail_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

class Poller {
 public:
  Poller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epoll_fd_.get() < 0) fail_errno("epoll_create1");
  }

  void add(int fd, std::uint32_t events, std::uint64_t key) {
    control(EPOLL_CTL_ADD, fd, events, key);
  }
  void modify(int fd, std::uint32_t events, std::uint64_t key) {
    control(EPOLL_CTL_MOD, fd, events, key);
  }

  // Calls on_ready(key, events) for each fd ready now; never blocks.
  template <typename OnReady>
  void poll(OnReady&& on_ready) {
    epoll_event events[16];
    const int n = ::epoll_wait(epoll_fd_.get(), events, 16, 0);
    if (n < 0) {
      if (errno == EINTR) return;
      fail_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) on_ready(events[i].data.u64, events[i].events);
  }

 private:
  void control(int op, int fd, std::uint32_t events, std::uint64_t key) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = key;
    if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) < 0) fail_errno("epoll_ctl");
  }

  UniqueFd epoll_fd_;
};

}  // namespace swc::bench
