// Loopback tests for serve::HttpServer, the one hand-rolled HTTP stack
// in the tree: keep-alive framing, body limits, error statuses, and
// accept-stage shedding. Everything runs against a raw socket client so
// the bytes on the wire are exactly what a real peer would send.

#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace rwdt::serve {
namespace {

struct HttpResult {
  int status = 0;
  std::string body;
  std::string head;  // status line + headers
  bool transport_ok = false;
};

/// A keep-alive-capable raw-socket client: one connection, many
/// request/response exchanges framed by Content-Length.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  HttpResult Exchange(const std::string& method, const std::string& target,
                      const std::string& body = "",
                      const std::string& extra_headers = "") {
    std::string request = method + " " + target +
                          " HTTP/1.1\r\nHost: t\r\n" + extra_headers;
    if (!body.empty() || method == "POST") {
      request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n" + body;
    if (!SendRaw(request)) return {};
    return ReadResponse();
  }

  HttpResult ReadResponse() {
    HttpResult result;
    char chunk[4096];
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return result;
      buf_.append(chunk, static_cast<size_t>(n));
    }
    result.head = buf_.substr(0, head_end);
    size_t body_len = 0;
    const size_t cl = result.head.find("Content-Length:");
    if (cl != std::string::npos) {
      body_len = static_cast<size_t>(std::atoll(result.head.c_str() + cl + 15));
    }
    while (buf_.size() < head_end + 4 + body_len) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return result;
      buf_.append(chunk, static_cast<size_t>(n));
    }
    result.body = buf_.substr(head_end + 4, body_len);
    buf_.erase(0, head_end + 4 + body_len);
    if (result.head.compare(0, 9, "HTTP/1.1 ") == 0) {
      result.status = std::atoi(result.head.c_str() + 9);
    }
    result.transport_ok = true;
    return result;
  }

  /// True once the peer closes (EOF) with no further data.
  bool AtEof() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

HttpServer::Options BaseOptions() {
  HttpServer::Options opts;
  opts.port = 0;
  opts.handler_threads = 2;
  opts.io_timeout_ms = 3000;
  return opts;
}

TEST(QueryParamTest, ExtractsValues) {
  EXPECT_EQ(QueryParam("a=1&b=2", "a"), "1");
  EXPECT_EQ(QueryParam("a=1&b=2", "b"), "2");
  EXPECT_EQ(QueryParam("a=1&b=2", "c", "fallback"), "fallback");
  EXPECT_EQ(QueryParam("", "a", "x"), "x");
  EXPECT_EQ(QueryParam("flag&b=2", "b"), "2");
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(BaseOptions());
  server.Handle("GET", "/echo", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "q=" + req.query;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 5; ++i) {
    const HttpResult r =
        client.Exchange("GET", "/echo?n=" + std::to_string(i));
    ASSERT_TRUE(r.transport_ok) << "request " << i;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "q=n=" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 5u);
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.Stop();
}

TEST(HttpServerTest, PostBodyAndHeadersRoundTrip) {
  HttpServer server(BaseOptions());
  server.Handle("POST", "/submit", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = std::string(req.Header("x-tenant")) + "|" + req.body;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  const HttpResult r = client.Exchange("POST", "/submit", "hello body",
                                       "X-Tenant: acme\r\n");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "acme|hello body");
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsAreServedInOrder) {
  HttpServer server(BaseOptions());
  server.Handle("GET", "/a", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "A";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.SendRaw(
      "GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /a HTTP/1.1\r\nHost: t\r\n\r\n"));
  const HttpResult first = client.ReadResponse();
  const HttpResult second = client.ReadResponse();
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "A");
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body, "A");
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyGets413AndCloses) {
  HttpServer::Options opts = BaseOptions();
  opts.max_body_bytes = 64;
  HttpServer server(opts);
  server.Handle("POST", "/submit", [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  const HttpResult r =
      client.Exchange("POST", "/submit", std::string(1000, 'x'));
  EXPECT_EQ(r.status, 413);
  // The server refuses to read the oversized body and closes.
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

TEST(HttpServerTest, OversizedHeadGets431) {
  HttpServer::Options opts = BaseOptions();
  opts.max_head_bytes = 256;
  HttpServer server(opts);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  const HttpResult r = client.Exchange(
      "GET", "/x", "", "X-Padding: " + std::string(1000, 'p') + "\r\n");
  EXPECT_EQ(r.status, 431);
  server.Stop();
}

TEST(HttpServerTest, UnknownPath404KnownPathWrongMethod405) {
  HttpServer server(BaseOptions());
  server.Handle("POST", "/only-post", [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  EXPECT_EQ(client.Exchange("GET", "/nowhere").status, 404);
  const HttpResult r = client.Exchange("GET", "/only-post");
  EXPECT_EQ(r.status, 405);
  EXPECT_NE(r.head.find("Allow: POST"), std::string::npos) << r.head;
  server.Stop();
}

TEST(HttpServerTest, MalformedContentLengthGets400) {
  HttpServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.SendRaw(
      "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n"));
  EXPECT_EQ(client.ReadResponse().status, 400);
  server.Stop();
}

TEST(HttpServerTest, SignedContentLengthGets400) {
  HttpServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  // Content-Length is 1*DIGIT: "-5" must not wrap to a huge length (a
  // 413) and "+5" must not be read as 5.
  for (const char* length : {"-5", "+5"}) {
    TestClient client(server.port());
    ASSERT_TRUE(client.SendRaw(std::string("POST /x HTTP/1.1\r\nHost: t\r\n"
                                           "Content-Length: ") +
                               length + "\r\n\r\nhello"));
    EXPECT_EQ(client.ReadResponse().status, 400) << length;
  }
  server.Stop();
}

TEST(HttpServerTest, ConflictingContentLengthsGet400) {
  HttpServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  // Two lengths that disagree make the framing ambiguous (RFC 9112
  // 6.3); the server must not pick one.
  TestClient client(server.port());
  ASSERT_TRUE(client.SendRaw(
      "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n"
      "Content-Length: 400\r\n\r\nabc"));
  EXPECT_EQ(client.ReadResponse().status, 400);
  server.Stop();
}

TEST(HttpServerTest, ChunkedTransferEncodingGets501) {
  HttpServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.SendRaw(
      "POST /x HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"));
  EXPECT_EQ(client.ReadResponse().status, 501);
  server.Stop();
}

TEST(HttpServerTest, QuitQuitQuitReleasesWaitForQuit) {
  HttpServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.WaitForQuit(0));

  TestClient client(server.port());
  EXPECT_EQ(client.Exchange("GET", "/quitquitquit").status, 200);
  EXPECT_TRUE(server.WaitForQuit(2000));
  server.Stop();
}

TEST(HttpServerTest, AcceptQueueOverflowShedsWith503RetryAfter) {
  HttpServer::Options opts = BaseOptions();
  opts.handler_threads = 1;
  opts.max_pending = 1;
  HttpServer server(opts);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> in_handler{0};
  server.Handle("GET", "/slow", [&](const HttpRequest&) {
    in_handler.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    HttpResponse resp;
    resp.body = "slow done";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  // First connection occupies the only handler thread.
  TestClient busy(server.port());
  ASSERT_TRUE(busy.SendRaw("GET /slow HTTP/1.1\r\nHost: t\r\n\r\n"));
  for (int i = 0; i < 200 && in_handler.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(in_handler.load(), 1);

  // Second connection fills the pending queue (it is accepted but no
  // handler is free to serve it yet).
  TestClient queued(server.port());
  ASSERT_TRUE(queued.SendRaw("GET /slow HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Third connection must be shed with a real HTTP response — never a
  // silent drop.
  TestClient shed(server.port());
  const HttpResult r = shed.ReadResponse();
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.head.find("Retry-After:"), std::string::npos) << r.head;
  EXPECT_GE(server.connections_shed(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Both the busy and the queued connection complete normally.
  EXPECT_EQ(busy.ReadResponse().status, 200);
  EXPECT_EQ(queued.ReadResponse().status, 200);
  server.Stop();
}

TEST(HttpServerTest, StopWithNoTrafficIsClean) {
  HttpServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace rwdt::serve
