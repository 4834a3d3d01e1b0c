#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace sofya {
namespace {

constexpr size_t kReadChunk = 16384;
constexpr int kListenBacklog = 128;

std::string PeerString(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return StrFormat("%s:%u", ip, static_cast<unsigned>(ntohs(addr.sin_port)));
}

/// Appends what the socket holds to `in`, stopping once `in` exceeds `limit`
/// (the request loop then answers 413). A short read means the socket was
/// drained: an EPOLLIN re-arm reports whatever arrives later. Returns false
/// on EOF or a hard error.
bool ReadAvailable(int fd, std::string* in, size_t limit) {
  char chunk[kReadChunk];
  while (in->size() <= limit) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in->append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

/// The canned response for a request the parser refused: the parse status
/// carries the RFC-mandated distinction (Unimplemented -> 501 for
/// Transfer-Encoding requests, ResourceExhausted -> 413 for an oversized
/// request, anything else -> 400).
HttpResponse RejectionResponse(const Status& status) {
  HttpResponse response;
  if (status.IsUnimplemented()) {
    response.status_code = 501;
    response.reason = "Not Implemented";
  } else if (status.IsResourceExhausted()) {
    response.status_code = 413;
    response.reason = "Content Too Large";
  } else {
    response.status_code = 400;
    response.reason = "Bad Request";
  }
  response.headers = {{"Connection", "close"},
                      {"Content-Type", "text/plain"}};
  response.body = status.ToString() + "\n";
  return response;
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("http server already running");
  }
  stopping_.store(false, std::memory_order_release);

  // Ephemeral binds (port 0) must not set SO_REUSEADDR: with it, the kernel
  // may hand out a port another process just bound but not yet listened on,
  // and this socket then fails at listen() with EADDRINUSE — the classic
  // parallel-test-runner flake. Without the option the race window still
  // exists (bind-to-0 in two processes can collide), so EADDRINUSE on an
  // ephemeral bind/listen is retried with a fresh socket.
  const bool ephemeral = options_.port == 0;
  constexpr int kEphemeralBindAttempts = 16;
  for (int attempt = 0;; ++attempt) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) {
      return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
    }
    if (!ephemeral) {
      const int enable = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                   sizeof(enable));
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("bad bind address '" +
                                     options_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int bind_errno = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (bind_errno == EADDRINUSE && ephemeral &&
          attempt + 1 < kEphemeralBindAttempts) {
        continue;
      }
      return Status::Unavailable(
          StrFormat("bind %s:%u: %s", options_.bind_address.c_str(),
                    static_cast<unsigned>(options_.port),
                    std::strerror(bind_errno)));
    }
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    port_ = ntohs(addr.sin_port);
    if (::listen(listen_fd_, kListenBacklog) < 0) {
      const int listen_errno = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (listen_errno == EADDRINUSE && ephemeral &&
          attempt + 1 < kEphemeralBindAttempts) {
        continue;
      }
      return Status::Unavailable(
          StrFormat("listen: %s", std::strerror(listen_errno)));
    }
    break;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || stop_fd_ < 0) {
    Stop();
    return Status::Internal("epoll/eventfd creation failed");
  }
  // Level-triggered, unlike the connections: every thread sees these. The
  // tags tell them apart from a Connection* in WorkerLoop.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.ptr = &stop_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev);

  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  }
  // Each thread returns after the event it is serving, so joining drains
  // in-flight handlers.
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& [id, conn] : connections_) ::close(conn->fd);
    connections_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  listen_fd_ = epoll_fd_ = stop_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void HttpServer::WorkerLoop() {
  while (true) {
    // One event at a time: a batch would queue ready connections behind
    // this thread's handlers while other threads sit idle.
    epoll_event event{};
    const int n = ::epoll_wait(epoll_fd_, &event, 1, -1);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 || event.data.ptr == &stop_fd_) return;
    if (event.data.ptr == nullptr) {
      AcceptPending();
      continue;
    }
    auto* conn = static_cast<Connection*>(event.data.ptr);
    if (!ServeEvent(conn)) CloseConnection(conn);
  }
}

void HttpServer::AcceptPending() {
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient accept error): done.
    Connection* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      if (connections_.size() >= options_.max_connections) {
        ::close(fd);  // Over capacity: refuse at the socket layer.
        continue;
      }
      auto owned = std::make_unique<Connection>();
      conn = owned.get();
      conn->id = next_connection_id_++;
      connections_.emplace(conn->id, std::move(owned));
    }
    bool armed = false;
    {
      // Under mu, so the first thread to serve this connection sees its
      // fields.
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->fd = fd;
      conn->peer = PeerString(peer);
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLONESHOT;
      ev.data.ptr = conn;
      armed = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
    }
    if (!armed) {
      CloseConnection(conn);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool HttpServer::ServeEvent(Connection* conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  // A pending response means this is the EPOLLOUT wake; otherwise EPOLLIN.
  const bool peer_open =
      !conn->out.empty() ||
      ReadAvailable(conn->fd, &conn->in, options_.max_request_bytes);
  while (true) {
    if (!conn->out.empty()) {
      switch (Flush(conn)) {
        case Flushed::kBlocked:
          Rearm(conn, EPOLLOUT);
          return true;
        case Flushed::kFailed:
          return false;
        case Flushed::kDone:
          if (conn->close_after_write) return false;
          break;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) return false;

    HttpRequest request;
    StatusOr<size_t> consumed =
        TryParseHttpRequest(conn->in, &request, options_.max_request_bytes);
    HttpResponse response;
    if (consumed.ok() && *consumed > 0) {
      conn->in.erase(0, *consumed);
      response = handler_(request, HttpServerClient{conn->peer, conn->id});
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      conn->close_after_write =
          WantsClose(request.headers) || WantsClose(response.headers);
    } else if (consumed.ok() &&
               conn->in.size() <= options_.max_request_bytes) {
      break;  // The next request is incomplete: wait for more bytes.
    } else {
      response = RejectionResponse(
          consumed.ok() ? Status::ResourceExhausted(
                              "http: request exceeds max_request_bytes")
                        : consumed.status());
      conn->close_after_write = true;
    }
    conn->out = SerializeHttpResponse(response);
  }
  if (!peer_open) return false;
  Rearm(conn, EPOLLIN);
  return true;
}

HttpServer::Flushed HttpServer::Flush(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Flushed::kBlocked;
    }
    return Flushed::kFailed;  // Peer gone: nothing left to deliver.
  }
  conn->out.clear();
  conn->out_sent = 0;
  return Flushed::kDone;
}

void HttpServer::Rearm(Connection* conn, uint32_t events) {
  epoll_event ev{};
  ev.events = events | EPOLLONESHOT;
  ev.data.ptr = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void HttpServer::CloseConnection(Connection* conn) {
  ::close(conn->fd);  // Also leaves the epoll set: the fd is never dup'd.
  std::lock_guard<std::mutex> lock(connections_mu_);
  connections_.erase(conn->id);  // Frees conn.
}

}  // namespace sofya
