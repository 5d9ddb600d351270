#include "src/serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/util/error.h"

namespace ape::serve {

namespace {

/// One connect(2) attempt; returns 0 or the failing errno. Opens and, on
/// failure, closes its own fd so a retry starts from a clean socket (a
/// failed connect leaves the fd in an unspecified state on POSIX).
int try_connect(const sockaddr_un& addr, int* out_fd) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno;
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    close(fd);
    return saved;
  }
  *out_fd = fd;
  return 0;
}

}  // namespace

Client::Client(const std::string& socket_path, const ConnectOptions& connect) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw SpecError("client: socket path too long for AF_UNIX");
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const int attempts = 1 + std::max(connect.retries, 0);
  int err = 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Bounded exponential backoff: backoff_ms * 2^(attempt-1), capped.
      // Transient-only — a daemon mid-startup answers ENOENT (socket not
      // yet bound) or ECONNREFUSED (bound, not yet listening).
      long wait = std::max(connect.backoff_ms, 0);
      for (int i = 1; i < attempt && wait < connect.backoff_max_ms; ++i) {
        wait *= 2;
      }
      wait = std::min<long>(wait, std::max(connect.backoff_max_ms, 0));
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      }
    }
    err = try_connect(addr, &fd_);
    if (err == 0) return;
    if (err != ECONNREFUSED && err != ENOENT) break;  // permanent
  }
  throw Error("client: connect('" + socket_path +
              "'): " + std::strerror(err) +
              (attempts > 1 ? " (after " + std::to_string(attempts) +
                                  " attempts)"
                            : ""));
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

void Client::send(const std::string& request_json) {
  if (!write_frame(fd_, request_json)) {
    throw Error("client: send failed (daemon gone?)");
  }
}

std::string Client::receive() {
  std::string payload;
  const FrameStatus status = read_frame(fd_, &payload);
  if (status != FrameStatus::Ok) {
    throw Error(std::string("client: response frame: ") + to_string(status));
  }
  return payload;
}

std::string Client::call(const std::string& request_json) {
  send(request_json);
  return receive();
}

bool Client::send_raw(const void* data, size_t n) {
  return write_all(fd_, data, n);
}

void Client::shutdown_write() { shutdown(fd_, SHUT_WR); }

}  // namespace ape::serve
