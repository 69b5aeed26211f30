#include <gtest/gtest.h>

#include "http/http_client.h"
#include "http/http_message.h"
#include "http/servlet_container.h"
#include "net/sim_network.h"

namespace discover::http {
namespace {

TEST(HttpCodecTest, RequestRoundTrip) {
  HttpRequest req;
  req.method = Method::post;
  req.path = "/discover/command?x=1&y=2";
  req.headers.set("X-Request-Id", "42");
  req.body = util::to_bytes("payload");
  const util::Bytes wire = serialize(req);
  auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().method, Method::post);
  EXPECT_EQ(parsed.value().path, "/discover/command?x=1&y=2");
  EXPECT_EQ(parsed.value().path_without_query(), "/discover/command");
  EXPECT_EQ(parsed.value().query_param("x"), "1");
  EXPECT_EQ(parsed.value().query_param("y"), "2");
  EXPECT_EQ(parsed.value().query_param("z"), std::nullopt);
  EXPECT_EQ(parsed.value().headers.get("x-request-id"), "42");  // case-insens
  EXPECT_EQ(util::to_string(parsed.value().body), "payload");
}

TEST(HttpCodecTest, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.headers.set("Set-Cookie", "DISCOVERID=7");
  resp.body = util::to_bytes("missing");
  auto parsed = parse_response(serialize(resp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 404);
  EXPECT_EQ(parsed.value().reason, "Not Found");
  EXPECT_EQ(parsed.value().headers.get("set-cookie"), "DISCOVERID=7");
}

TEST(HttpCodecTest, WireFormatIsRealHttp) {
  HttpRequest req;
  req.method = Method::get;
  req.path = "/index";
  const std::string text = util::to_string(serialize(req));
  EXPECT_EQ(text.rfind("GET /index HTTP/1.0\r\n", 0), 0u);
  EXPECT_NE(text.find("Content-Length: 0\r\n\r\n"), std::string::npos);
}

TEST(HttpCodecTest, RejectsMalformedInput) {
  EXPECT_FALSE(parse_request(util::to_bytes("garbage")).ok());
  EXPECT_FALSE(parse_request(util::to_bytes("FETCH / HTTP/1.0\r\n\r\n")).ok());
  EXPECT_FALSE(parse_response(util::to_bytes("HTP/1.0 200 OK\r\n\r\n")).ok());
  // Content-Length mismatch.
  EXPECT_FALSE(
      parse_request(
          util::to_bytes("GET / HTTP/1.0\r\nContent-Length: 5\r\n\r\nab"))
          .ok());
}

TEST(HttpCodecTest, RejectsBadContentLengthValues) {
  // Trailing garbage must not be silently truncated to a valid prefix.
  EXPECT_FALSE(
      parse_request(
          util::to_bytes("GET / HTTP/1.0\r\nContent-Length: 2junk\r\n\r\nab"))
          .ok());
  // Non-numeric and empty values.
  EXPECT_FALSE(
      parse_request(
          util::to_bytes("GET / HTTP/1.0\r\nContent-Length: abc\r\n\r\n"))
          .ok());
  EXPECT_FALSE(parse_request(util::to_bytes(
                                 "GET / HTTP/1.0\r\nContent-Length: \r\n\r\n"))
                   .ok());
  // Sign characters are not part of the grammar.
  EXPECT_FALSE(
      parse_request(
          util::to_bytes("GET / HTTP/1.0\r\nContent-Length: +2\r\n\r\nab"))
          .ok());
  // Overflow beyond uint64 must be rejected, not wrapped.
  EXPECT_FALSE(parse_request(util::to_bytes("GET / HTTP/1.0\r\n"
                                            "Content-Length: "
                                            "99999999999999999999999999\r\n"
                                            "\r\n"))
                   .ok());
  // Surrounding whitespace is tolerated (RFC 7230 OWS).
  EXPECT_TRUE(
      parse_request(
          util::to_bytes("GET / HTTP/1.0\r\nContent-Length: 2 \r\n\r\nab"))
          .ok());
}

TEST(HttpCodecTest, RejectsConflictingDuplicateContentLength) {
  // Disagreeing duplicates are a smuggling vector: reject.
  EXPECT_FALSE(parse_request(util::to_bytes("GET / HTTP/1.0\r\n"
                                            "Content-Length: 2\r\n"
                                            "Content-Length: 3\r\n"
                                            "\r\nab"))
                   .ok());
  // Identical duplicates are tolerated (serialize() appends its own copy
  // after any caller-set header).
  EXPECT_TRUE(parse_request(util::to_bytes("POST /x HTTP/1.0\r\n"
                                           "Content-Length: 2\r\n"
                                           "content-length: 2\r\n"
                                           "\r\nab"))
                  .ok());
}

TEST(HeaderMapTest, SetOverwritesCaseInsensitively) {
  HeaderMap h;
  h.set("Content-Type", "a");
  h.set("content-type", "b");
  EXPECT_EQ(h.all().size(), 1u);
  EXPECT_EQ(h.get("CONTENT-TYPE"), "b");
}

// ---------------------------------------------------------------------------
// Container + client over a SimNetwork
// ---------------------------------------------------------------------------

class EchoServlet : public Servlet {
 public:
  void service(const HttpRequest& request, HttpResponse& response,
               ServletContext& ctx) override {
    response.body = request.body;
    response.headers.set("X-Session", std::to_string(ctx.session->id()));
    ++hits;
  }
  int hits = 0;
};

class ServerNode : public net::MessageHandler {
 public:
  explicit ServerNode(net::Network& net) : network_(net) {}
  void init(net::NodeId self) {
    container = std::make_unique<ServletContainer>(network_, self);
  }
  void on_message(const net::Message& msg) override {
    container->handle(msg);
  }
  net::Network& network_;
  std::unique_ptr<ServletContainer> container;
};

class ClientNode : public net::MessageHandler {
 public:
  explicit ClientNode(net::Network& net) : network_(net) {}
  void init(net::NodeId self) {
    client = std::make_unique<HttpClient>(network_, self);
  }
  void on_message(const net::Message& msg) override { client->handle(msg); }
  net::Network& network_;
  std::unique_ptr<HttpClient> client;
};

class HttpStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node_ = std::make_unique<ServerNode>(net_);
    client_node_ = std::make_unique<ClientNode>(net_);
    server_id_ = net_.add_node("server", server_node_.get());
    client_id_ = net_.add_node("client", client_node_.get());
    server_node_->init(server_id_);
    client_node_->init(client_id_);
    echo_ = std::make_shared<EchoServlet>();
    server_node_->container->mount("/echo", echo_);
  }

  net::SimNetwork net_;
  std::unique_ptr<ServerNode> server_node_;
  std::unique_ptr<ClientNode> client_node_;
  net::NodeId server_id_{0};
  net::NodeId client_id_{0};
  std::shared_ptr<EchoServlet> echo_;
};

TEST_F(HttpStackTest, RequestResponseRoundTrip) {
  HttpRequest req;
  req.method = Method::post;
  req.path = "/echo/test";
  req.body = util::to_bytes("ping");
  std::string got;
  client_node_->client->request(server_id_, std::move(req),
                                [&](util::Result<HttpResponse> r) {
                                  ASSERT_TRUE(r.ok());
                                  got = util::to_string(r.value().body);
                                });
  net_.run_until_idle();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(echo_->hits, 1);
}

TEST_F(HttpStackTest, UnknownPathIs404) {
  HttpRequest req;
  req.path = "/nope";
  int status = 0;
  client_node_->client->request(server_id_, std::move(req),
                                [&](util::Result<HttpResponse> r) {
                                  ASSERT_TRUE(r.ok());
                                  status = r.value().status;
                                });
  net_.run_until_idle();
  EXPECT_EQ(status, 404);
}

TEST_F(HttpStackTest, SessionCookiePersistsAcrossRequests) {
  std::vector<std::string> sessions;
  for (int i = 0; i < 3; ++i) {
    HttpRequest req;
    req.path = "/echo";
    client_node_->client->request(server_id_, std::move(req),
                                  [&](util::Result<HttpResponse> r) {
                                    ASSERT_TRUE(r.ok());
                                    sessions.push_back(
                                        *r.value().headers.get("X-Session"));
                                  });
    net_.run_until_idle();
  }
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_EQ(sessions[0], sessions[1]);
  EXPECT_EQ(sessions[1], sessions[2]);
  EXPECT_EQ(server_node_->container->session_count(), 1u);
}

TEST_F(HttpStackTest, ConcurrentRequestsCorrelateById) {
  // Fire 10 requests before any response arrives; each callback must see
  // its own body.
  int correct = 0;
  for (int i = 0; i < 10; ++i) {
    HttpRequest req;
    req.method = Method::post;
    req.path = "/echo";
    req.body = util::to_bytes("msg" + std::to_string(i));
    client_node_->client->request(
        server_id_, std::move(req), [&, i](util::Result<HttpResponse> r) {
          ASSERT_TRUE(r.ok());
          if (util::to_string(r.value().body) == "msg" + std::to_string(i)) {
            ++correct;
          }
        });
  }
  net_.run_until_idle();
  EXPECT_EQ(correct, 10);
}

TEST_F(HttpStackTest, TimeoutFiresWhenServerSilent) {
  // Target a node that never answers (the client itself).
  HttpRequest req;
  req.path = "/echo";
  bool timed_out = false;
  client_node_->client->request(
      client_id_, std::move(req),
      [&](util::Result<HttpResponse> r) {
        timed_out = !r.ok() && r.error().code == util::Errc::timeout;
      },
      util::milliseconds(50));
  net_.run_until_idle();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(client_node_->client->timeouts(), 1u);
}

class DeferringServlet : public Servlet {
 public:
  explicit DeferringServlet(net::Network& net) : net_(net) {}
  void service(const HttpRequest&, HttpResponse&,
               ServletContext& ctx) override {
    auto reply = ctx.defer();
    // Answer 5 ms later from a timer.
    net_.schedule(net::NodeId{0}, util::milliseconds(5), [reply] {
      HttpResponse resp;
      resp.body = util::to_bytes("deferred");
      reply->complete(std::move(resp));
    });
  }
  net::Network& net_;
};

TEST_F(HttpStackTest, DeferredReplyReachesClientWithCorrelation) {
  server_node_->container->mount(
      "/slow", std::make_shared<DeferringServlet>(net_));
  HttpRequest req;
  req.path = "/slow";
  std::string got;
  client_node_->client->request(server_id_, std::move(req),
                                [&](util::Result<HttpResponse> r) {
                                  ASSERT_TRUE(r.ok());
                                  got = util::to_string(r.value().body);
                                });
  net_.run_until_idle();
  EXPECT_EQ(got, "deferred");
}

// Defers, then completes before returning (the hop it deferred for ran
// inline) or, given a network, from a timer after returning.
class InlineDeferringServlet : public Servlet {
 public:
  explicit InlineDeferringServlet(net::Network* later = nullptr)
      : later_(later) {}
  void service(const HttpRequest&, HttpResponse&,
               ServletContext& ctx) override {
    auto reply = ctx.defer();
    const auto answer = [reply] {
      HttpResponse resp;
      resp.headers.set("Content-Type", "text/plain");
      resp.body = util::to_bytes("same");
      reply->complete(std::move(resp));
    };
    if (later_ != nullptr) {
      later_->schedule(net::NodeId{0}, util::milliseconds(5), answer);
    } else {
      answer();
    }
    ++hits;
  }
  int hits = 0;

 private:
  net::Network* later_;
};

class RawReplies : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    replies.push_back(util::to_string(msg.payload.bytes()));
  }
  std::vector<std::string> replies;
};

TEST_F(HttpStackTest, DeferredReplyHasDirectReplyBytes) {
  // Completed inside service (the hop it deferred for ran inline) and
  // completed later from a timer: both replies carry the container
  // headers first, then the servlet's — exactly what a servlet writing
  // into its response argument produces.
  RawReplies raw;
  const net::NodeId raw_id = net_.add_node("raw", &raw);
  std::uint64_t session = 0;
  for (net::Network* later : {static_cast<net::Network*>(nullptr),
                              static_cast<net::Network*>(&net_)}) {
    auto servlet = std::make_shared<InlineDeferringServlet>(later);
    const std::string path = later == nullptr ? "/inline" : "/later";
    server_node_->container->mount(path, servlet);
    HttpRequest req;
    req.path = path;
    const std::string rid = std::to_string(++session);
    req.headers.set("X-Request-Id", rid);
    raw.replies.clear();
    for (int i = 0; i < 2; ++i) {
      net_.send(raw_id, server_id_, net::Channel::http, serialize(req));
      net_.run_until_idle();
    }
    const std::string direct =
        "HTTP/1.0 200 OK\r\nSet-Cookie: DISCOVERID=" + rid +
        "\r\nX-Request-Id: " + rid +
        "\r\nContent-Type: text/plain\r\nContent-Length: 4\r\n\r\nsame";
    ASSERT_EQ(raw.replies.size(), 2u) << path;
    EXPECT_EQ(raw.replies[0], direct) << path;
    // The retry is answered from the duplicate-request cache.
    EXPECT_EQ(raw.replies[1], direct) << path;
    EXPECT_EQ(servlet->hits, 1) << path;
  }
}

TEST_F(HttpStackTest, SessionExpiry) {
  HttpRequest req;
  req.path = "/echo";
  client_node_->client->request(server_id_, std::move(req),
                                [](util::Result<HttpResponse>) {});
  net_.run_until_idle();
  EXPECT_EQ(server_node_->container->session_count(), 1u);
  net_.run_for(util::seconds(10));
  server_node_->container->expire_sessions(util::seconds(5));
  EXPECT_EQ(server_node_->container->session_count(), 0u);
}

}  // namespace
}  // namespace discover::http
