// HttpServer: a non-blocking epoll accept loop over the HTTP/1.1 message
// model in net/http.h — the server half of the stack whose client half is
// net/http_client.h. Both ends share one serialize/parse pair, so a request
// the client emits is by construction one the server frames correctly, and
// vice versa.
//
// Architecture: `worker_threads` threads wait on one epoll set holding the
// listener, a stop eventfd and every connection. Connections are registered
// EPOLLONESHOT, so a readiness event hands a connection to exactly one
// thread, which serves it start to finish: it reads, parses, runs the
// handler inline, writes the response, and then re-arms the fd (EPOLLIN, or
// EPOLLOUT when the send would block) or closes it. There is no I/O thread
// and no cross-thread handoff per request. Per connection, requests are
// processed strictly one at a time (a response is fully written before the
// next buffered request is parsed), which keeps HTTP/1.1 response ordering
// trivially correct; concurrency comes from having many connections.
//
// Framing discipline: requests are parsed with TryParseHttpRequest, whose
// guards reject Transfer-Encoding requests (-> 501) and smuggling-shaped
// header combinations (-> 400) before any handler sees them; a request whose
// head declares more than max_request_bytes is answered 413 as soon as the
// head arrives. Keep-alive is the default; "Connection: close" on either
// side ends the connection after the response drains.
//
// Thread safety: Start/Stop are for one controlling thread; the handler is
// invoked concurrently from the server threads and must be thread-safe.

#ifndef SOFYA_NET_HTTP_SERVER_H_
#define SOFYA_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "util/status.h"

namespace sofya {

/// Server knobs.
struct HttpServerOptions {
  /// Dotted-quad IPv4 address to bind; "0.0.0.0" listens on all interfaces.
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Server threads in total: each one accepts, reads, runs the handler and
  /// writes, so this also bounds the handlers running at once. 0 means 1.
  size_t worker_threads = 4;

  /// Accepted-connection bound; connections beyond it are refused (closed
  /// immediately) until others drain.
  size_t max_connections = 256;

  /// Hard cap on one request (head + body); a request that declares or
  /// buffers more is answered 413 and the connection closed.
  size_t max_request_bytes = 16u << 20;
};

/// Who sent the request — the handler's admission-control key.
struct HttpServerClient {
  std::string address;     ///< Peer "ip:port" (loopback mode: a label).
  uint64_t connection_id;  ///< Monotonic per accepted connection.
};

/// Epoll HTTP/1.1 server; see file comment.
class HttpServer {
 public:
  /// Maps one parsed request to a response. Invoked on the server threads,
  /// concurrently; must be thread-safe.
  using Handler =
      std::function<HttpResponse(const HttpRequest&, const HttpServerClient&)>;

  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the server threads. Fails if the
  /// address/port cannot be bound.
  Status Start();

  /// Stops accepting, lets running handlers finish, joins the server
  /// threads, closes every connection. Idempotent.
  void Stop();

  /// The bound port (after Start(); useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// True between a successful Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Counters (tests / ops).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state. EPOLLONESHOT gives a connection to one thread at
  /// a time, but the sanitizer cannot see that handoff through the kernel,
  /// so the serving thread also holds `mu` for the whole event — and does
  /// not touch the connection after re-arming it, except under `mu`.
  struct Connection {
    std::mutex mu;
    int fd = -1;
    uint64_t id = 0;
    std::string peer;  ///< "ip:port".
    std::string in;    ///< Bytes read, not yet parsed.
    std::string out;   ///< Serialized response bytes being written.
    size_t out_sent = 0;  ///< Prefix of `out` already written.
    bool close_after_write = false;
  };

  void WorkerLoop();
  void AcceptPending();
  /// Serves one readiness event: flushes a pending response, reads, then
  /// answers every complete buffered request in order. Returns true once the
  /// connection is re-armed, false when the caller must close it.
  bool ServeEvent(Connection* conn);
  /// Writes as much of conn->out as the socket takes.
  enum class Flushed { kDone, kBlocked, kFailed };
  Flushed Flush(Connection* conn);
  void Rearm(Connection* conn, uint32_t events);
  /// Closes and frees a connection no thread holds an event for.
  void CloseConnection(Connection* conn);

  Handler handler_;
  HttpServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd, written once by Stop() and never drained.
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex connections_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>>
      connections_;              // Guarded by connections_mu_.
  uint64_t next_connection_id_ = 1;  // Guarded by connections_mu_.

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};

  std::vector<std::thread> threads_;  ///< Declared last: uses all of the above.
};

}  // namespace sofya

#endif  // SOFYA_NET_HTTP_SERVER_H_
