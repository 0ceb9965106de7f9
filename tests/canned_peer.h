#ifndef LLMMS_TESTS_CANNED_PEER_H_
#define LLMMS_TESTS_CANNED_PEER_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace llmms::testutil {

// A loopback HTTP peer for client tests: each accepted connection has its
// request read and is answered with the next canned reply, byte for byte,
// then closed. A peer with no replies listens but never accepts — connects
// succeed through the backlog and nothing is ever answered.
class CannedPeer {
 public:
  struct Reply {
    std::string bytes;
    // Written in `pieces` sends, 20 ms apart, to exercise client reads
    // that see partial framing.
    size_t pieces = 1;
    // End with a TCP reset (SO_LINGER 0) instead of a clean close, after a
    // pause that lets the client read what was sent.
    bool reset = false;
  };

  explicit CannedPeer(std::vector<Reply> replies) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 8) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      std::abort();
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, replies = std::move(replies)] {
      for (const Reply& reply : replies) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        ReadRequest(fd);
        served_.fetch_add(1);
        Answer(fd, reply);
      }
    });
  }

  // Wakes an accept() still waiting for a connection that never came.
  ~CannedPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }

  CannedPeer(const CannedPeer&) = delete;
  CannedPeer& operator=(const CannedPeer&) = delete;

  int port() const { return port_; }
  // Connections whose request has been read — each is answered next.
  size_t served() const { return served_.load(); }

 private:
  // Reads one request: the head, then as many body bytes as it announces.
  static void ReadRequest(int fd) {
    std::string raw;
    char buf[4096];
    for (;;) {
      const size_t head_end = raw.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const size_t at = raw.find("content-length: ");
        const size_t body =
            at < head_end ? std::strtoul(raw.c_str() + at + 16, nullptr, 10)
                          : 0;
        if (raw.size() >= head_end + 4 + body) return;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;
      raw.append(buf, static_cast<size_t>(n));
    }
  }

  static void Answer(int fd, const Reply& reply) {
    const size_t step = (reply.bytes.size() + reply.pieces - 1) / reply.pieces;
    for (size_t at = 0; at < reply.bytes.size(); at += step) {
      if (at > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::string piece = reply.bytes.substr(at, step);
      (void)::send(fd, piece.data(), piece.size(), MSG_NOSIGNAL);
    }
    if (reply.reset) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const linger abort_on_close{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                   sizeof(abort_on_close));
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<size_t> served_{0};
  std::thread thread_;
};

}  // namespace llmms::testutil

#endif  // LLMMS_TESTS_CANNED_PEER_H_
