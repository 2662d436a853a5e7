// Forked helper processes and the framed pipe protocol the benchmark uses to
// drive them: the lockstep sequential reference and, for the forked
// workload, one process per rank.
//
// A frame is a little-endian u32 length followed by that many bytes. The
// parent sends one command frame and reads one reply frame; the child
// serves commands until "quit" or until its pipe closes.
#pragma once

#include <poll.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

namespace lcbench {

class Channel {
 public:
  Channel() = default;
  Channel(int read_fd, int write_fd) : rfd_(read_fd), wfd_(write_fd) {}

  void send(const std::string& bytes) const {
    const auto n = static_cast<std::uint32_t>(bytes.size());
    unsigned char hdr[4] = {static_cast<unsigned char>(n),
                            static_cast<unsigned char>(n >> 8),
                            static_cast<unsigned char>(n >> 16),
                            static_cast<unsigned char>(n >> 24)};
    write_all(hdr, 4);
    write_all(bytes.data(), bytes.size());
  }

  // Reads one frame; throws on EOF, error, or when `timeout` passes first.
  std::string recv(std::chrono::milliseconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    unsigned char hdr[4];
    read_all(hdr, 4, deadline);
    const std::uint32_t n = hdr[0] | (hdr[1] << 8) | (hdr[2] << 16) |
                            (static_cast<std::uint32_t>(hdr[3]) << 24);
    std::string out(n, '\0');
    read_all(out.data(), n, deadline);
    return out;
  }

  void close_fds() {
    if (rfd_ >= 0) close(rfd_);
    if (wfd_ >= 0) close(wfd_);
    rfd_ = wfd_ = -1;
  }

 private:
  void write_all(const void* p, std::size_t n) const {
    const char* c = static_cast<const char*>(p);
    while (n > 0) {
      const ssize_t k = write(wfd_, c, n);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) throw std::runtime_error("pipe write failed");
      c += k;
      n -= static_cast<std::size_t>(k);
    }
  }

  void read_all(void* p, std::size_t n,
                std::chrono::steady_clock::time_point deadline) const {
    char* c = static_cast<char*>(p);
    while (n > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) throw std::runtime_error("child timed out");
      pollfd pfd{rfd_, POLLIN, 0};
      const int r = poll(&pfd, 1, static_cast<int>(left.count()));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) continue;  // re-check the deadline
      const ssize_t k = read(rfd_, c, n);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) throw std::runtime_error("child closed its pipe");
      c += k;
      n -= static_cast<std::size_t>(k);
    }
  }

  int rfd_ = -1;
  int wfd_ = -1;
};

// A forked child serving `body` over a Channel. The destructor kills and
// reaps a child still running, so no process outlives the benchmark.
class Child {
 public:
  // Forks; the child runs body(channel) and _exits with 0 when it returns
  // normally, 1 on an exception (after printing it to stderr).
  explicit Child(const std::function<void(const Channel&)>& body) {
    int down[2];
    int up[2];
    if (pipe(down) != 0 || pipe(up) != 0) {
      throw std::runtime_error("pipe failed");
    }
    std::fflush(nullptr);  // the child must not replay buffered output
    pid_ = fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // Die with the parent, so a killed benchmark leaves no process.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      close(down[1]);
      close(up[0]);
      int code = 0;
      try {
        body(Channel(down[0], up[1]));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lcbench child: %s\n", e.what());
        code = 1;
      }
      std::fflush(nullptr);
      _exit(code);
    }
    close(down[0]);
    close(up[1]);
    channel_ = Channel(up[0], down[1]);
  }

  ~Child() { stop(std::chrono::milliseconds(5000)); }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  const Channel& channel() const { return channel_; }

  // Asks the child to quit, waits up to `grace`, then kills it; reaps it
  // either way. Returns true when it exited 0 on its own.
  bool stop(std::chrono::milliseconds grace) {
    if (pid_ <= 0) {
      return clean_;
    }
    try {
      channel_.send("quit");
    } catch (const std::exception&) {
      // Already gone; reaped below.
    }
    channel_.close_fds();
    const auto deadline = std::chrono::steady_clock::now() + grace;
    int status = 0;
    for (;;) {
      const pid_t got = waitpid(pid_, &status, WNOHANG);
      if (got == pid_) break;
      if (got < 0) { status = -1; break; }
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      usleep(2000);
    }
    clean_ = status == 0;
    pid_ = -1;
    return clean_;
  }

 private:
  pid_t pid_ = -1;
  bool clean_ = false;
  Channel channel_;
};

}  // namespace lcbench
