// HttpServer over real sockets: round trips through the production
// SocketTransport + HttpClient stack (both ends of the wire are our own
// serialize/parse pair), keep-alive reuse, concurrent clients, framing
// rejections, and overload/shutdown behavior.

#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_client.h"
#include "net/socket_transport.h"

namespace sofya {
namespace {

/// Handler echoing the request line + body (proves the handler saw the
/// parsed request, not raw bytes).
HttpResponse EchoHandler(const HttpRequest& request,
                         const HttpServerClient& client) {
  HttpResponse response;
  response.headers = {{"Content-Type", "text/plain"},
                      {"X-Client", client.address}};
  response.body = request.method + " " + request.target + "\n" + request.body;
  return response;
}

/// A blocking socket connected to the server on loopback, whose reads give
/// up after `recv_timeout_s` seconds.
int ConnectRaw(uint16_t port, int recv_timeout_s = 30) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = recv_timeout_s;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Writes raw bytes to the server and reads until the peer closes (or the
/// read times out) — the shape of every framing-rejection exchange (the
/// server answers and closes). Returns the raw response bytes.
std::string RawExchange(uint16_t port, const std::string& wire_bytes,
                        int recv_timeout_s = 30) {
  const int fd = ConnectRaw(port, recv_timeout_s);
  EXPECT_EQ(::send(fd, wire_bytes.data(), wire_bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire_bytes.size()));
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return received;
}

/// Holds a handler inside its call until the test opens the gate. Single
/// use: once open, Enter() returns at once.
class Gate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;  // Guarded by mu_.
  bool open_ = false;     // Guarded by mu_.
};

/// A started echo server on an ephemeral port + a pooled client bound to it.
class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(HttpServerOptions options = {},
                   HttpServer::Handler handler = EchoHandler) {
    server_ = std::make_unique<HttpServer>(std::move(handler), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<HttpClient> MakeClient(size_t max_connections = 2) {
    HttpClientOptions options;
    options.max_connections = max_connections;
    auto url = ParseUrl("http://127.0.0.1:" +
                        std::to_string(server_->port()) + "/echo");
    return std::make_unique<HttpClient>(&transport_, std::move(*url),
                                        options);
  }

  /// EchoHandler, except that a request whose body is "block" waits in
  /// gate_ first.
  HttpServer::Handler GatedEchoHandler() {
    return [this](const HttpRequest& request, const HttpServerClient& client) {
      if (request.body == "block") gate_.Enter();
      return EchoHandler(request, client);
    };
  }

  SocketTransport transport_;
  Gate gate_;
  std::unique_ptr<HttpServer> server_;  // Declared last: stops first.
};

TEST_F(HttpServerTest, RoundTripOverRealSocket) {
  StartServer();
  auto client = MakeClient();
  HttpRequest request;
  request.method = "POST";
  request.body = "hello server";
  auto response = client->RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "POST /echo\nhello server");
  // The handler saw a real peer address.
  const std::string* peer = FindHeader(response->headers, "X-Client");
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->rfind("127.0.0.1:", 0), 0u) << *peer;
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(HttpServerTest, KeepAliveReusesOneConnection) {
  StartServer();
  auto client = MakeClient();
  for (int i = 0; i < 5; ++i) {
    HttpRequest request;
    request.body = "req " + std::to_string(i);
    auto response = client->RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "POST /echo\nreq " + std::to_string(i));
  }
  EXPECT_EQ(server_->requests_served(), 5u);
  EXPECT_EQ(server_->connections_accepted(), 1u);  // Keep-alive held.
}

TEST_F(HttpServerTest, ConnectionCloseIsHonored) {
  StartServer();
  const std::string raw =
      "GET /bye HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  const std::string response = RawExchange(server_->port(), raw);
  // A full response arrived AND the server closed (RawExchange read EOF).
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("GET /bye"), std::string::npos);
}

TEST_F(HttpServerTest, ConcurrentClientsAllComplete) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kRequestsEach = 20;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &completed] {
      auto client = MakeClient(/*max_connections=*/1);
      for (int i = 0; i < kRequestsEach; ++i) {
        HttpRequest request;
        request.body = std::to_string(t) + ":" + std::to_string(i);
        auto response = client->RoundTrip(request);
        if (response.ok() &&
            response->body == "POST /echo\n" + request.body) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kThreads * kRequestsEach);
  EXPECT_EQ(server_->requests_served(),
            static_cast<uint64_t>(kThreads * kRequestsEach));
}

TEST_F(HttpServerTest, TransferEncodingRequestGets501) {
  StartServer();
  const std::string response = RawExchange(
      server_->port(),
      "POST /echo HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 501"), std::string::npos) << response;
}

TEST_F(HttpServerTest, SmugglingShapedRequestsGet400) {
  StartServer();
  const std::string te_cl = RawExchange(
      server_->port(),
      "POST /echo HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n"
      "Content-Length: 4\r\n\r\nbody");
  EXPECT_NE(te_cl.find("HTTP/1.1 400"), std::string::npos) << te_cl;

  const std::string dup_cl = RawExchange(
      server_->port(),
      "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n"
      "Content-Length: 11\r\n\r\nbody");
  EXPECT_NE(dup_cl.find("HTTP/1.1 400"), std::string::npos) << dup_cl;
}

TEST_F(HttpServerTest, OversizedRequestGets413) {
  HttpServerOptions options;
  options.max_request_bytes = 512;
  StartServer(options);
  HttpRequest request;
  request.body.assign(4096, 'x');
  request.headers.push_back({"Host", "t"});
  const std::string response =
      RawExchange(server_->port(), SerializeHttpRequest(request));
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
}

TEST_F(HttpServerTest, DeclaredOversizedBodyGets413Immediately) {
  StartServer();  // Default max_request_bytes: 16 MiB.
  // The head alone declares more than the limit; no body byte follows. The
  // answer must not wait for the body (the read gives up after 2 s).
  const std::string response = RawExchange(
      server_->port(),
      "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 17000000\r\n\r\n",
      /*recv_timeout_s=*/2);
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
}

/// Wire bytes of two pipelined requests, the second asking to close.
std::string TwoPipelinedRequests() {
  HttpRequest first, second;
  first.headers.push_back({"Host", "t"});
  first.body = "one";
  second.headers.push_back({"Host", "t"});
  second.body = "two";
  second.headers.push_back({"Connection", "close"});
  return SerializeHttpRequest(first) + SerializeHttpRequest(second);
}

/// Both pipelined responses arrived, in order.
void ExpectPipelinedInOrder(const std::string& response) {
  const size_t pos_one = response.find("POST /\none");
  const size_t pos_two = response.find("POST /\ntwo");
  EXPECT_NE(pos_one, std::string::npos) << response;
  EXPECT_NE(pos_two, std::string::npos) << response;
  EXPECT_LT(pos_one, pos_two);
}

TEST_F(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  // Two requests in one write; responses must come back in order on the
  // same connection (strict one-at-a-time per connection).
  ExpectPipelinedInOrder(RawExchange(server_->port(), TwoPipelinedRequests()));
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(HttpServerTest, StopIsIdempotentAndRestartable) {
  StartServer();
  const uint16_t old_port = server_->port();
  EXPECT_TRUE(server_->running());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // Idempotent.

  // A fresh Start() binds again (ephemeral port may differ).
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_TRUE(server_->running());
  auto client = MakeClient();
  HttpRequest request;
  request.body = "after restart";
  auto response = client->RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "POST /echo\nafter restart");
  (void)old_port;
}

TEST_F(HttpServerTest, BlockedHandlerDoesNotStallAnotherConnection) {
  HttpServerOptions options;
  options.worker_threads = 2;
  StartServer(options, GatedEchoHandler());
  auto blocked_client = MakeClient(/*max_connections=*/1);
  std::thread blocked([&blocked_client] {
    HttpRequest request;
    request.body = "block";
    auto response = blocked_client->RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "POST /echo\nblock");
  });
  gate_.AwaitEntered();
  // One thread sits in the handler; the other accepts and serves this one.
  const std::string response = RawExchange(
      server_->port(),
      "GET /quick HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
      /*recv_timeout_s=*/10);
  EXPECT_NE(response.find("GET /quick"), std::string::npos) << response;
  EXPECT_EQ(server_->requests_served(), 1u);
  gate_.Open();
  blocked.join();
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(HttpServerTest, LargeResponseArrivesIntact) {
  // Far more than a loopback socket buffer takes at once, so the server's
  // send would block and the rest goes out on EPOLLOUT wakes.
  std::string body(8u << 20, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  StartServer({}, [body](const HttpRequest&, const HttpServerClient&) {
    HttpResponse response;
    response.body = body;
    return response;
  });
  auto client = MakeClient();
  for (int i = 0; i < 2; ++i) {  // The second reuses the connection.
    auto response = client->RoundTrip(HttpRequest{});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->body.size(), body.size());
    EXPECT_TRUE(response->body == body);
  }
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(HttpServerTest, PeerClosingMidHandlerLeavesServerServing) {
  StartServer({}, GatedEchoHandler());
  HttpRequest request;
  request.headers.push_back({"Host", "t"});
  request.body = "block";
  const std::string wire = SerializeHttpRequest(request);
  const int fd = ConnectRaw(server_->port());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  gate_.AwaitEntered();
  ::close(fd);  // The peer is gone before its response exists.
  gate_.Open();

  auto client = MakeClient();
  HttpRequest next;
  next.body = "next";
  auto response = client->RoundTrip(next);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "POST /echo\nnext");
  server_->Stop();
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(HttpServerTest, OneThreadServesKeepAliveAndPipelining) {
  HttpServerOptions options;
  options.worker_threads = 1;
  std::mutex mu;
  std::set<std::thread::id> handler_threads;
  StartServer(options, [&](const HttpRequest& request,
                           const HttpServerClient& client) {
    std::lock_guard<std::mutex> lock(mu);
    handler_threads.insert(std::this_thread::get_id());
    return EchoHandler(request, client);
  });
  auto client = MakeClient();
  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.body = "req " + std::to_string(i);
    auto response = client->RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "POST /echo\nreq " + std::to_string(i));
  }
  EXPECT_EQ(server_->connections_accepted(), 1u);
  ExpectPipelinedInOrder(RawExchange(server_->port(), TwoPipelinedRequests()));
  EXPECT_EQ(server_->connections_accepted(), 2u);
  server_->Stop();
  EXPECT_EQ(server_->requests_served(), 5u);
  EXPECT_EQ(handler_threads.size(), 1u);
}

}  // namespace
}  // namespace sofya
