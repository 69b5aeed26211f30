// GenNetwork against a real OsNetwork server: the generator transport must
// carry the portal protocol end to end, stay within its connection cap, and
// get replies routed back for every client id its HELLOs advertise.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/synthetic.h"
#include "core/client.h"
#include "core/server.h"
#include "gen_network.h"
#include "net/os_network.h"
#include "workload/scenario.h"

namespace portalbench {
namespace {

namespace app = discover::app;
namespace core = discover::core;
namespace net = discover::net;
namespace proto = discover::proto;
namespace util = discover::util;

constexpr int kClients = 6;
constexpr std::size_t kConns = 2;
constexpr std::int64_t kSec = 1'000'000'000;

/// Node ids: 0 server, 1 app, 2.. clients (same order in both networks).
class GenNetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<core::DiscoverServer>(sut_, core::ServerConfig{});
    sut_.add_node("server", server_.get());
    app::AppConfig acfg;
    acfg.name = "synth";
    for (int i = 0; i < kClients; ++i) {
      acfg.acl.push_back({"user" + std::to_string(i),
                          discover::security::Privilege::steer, 0});
    }
    acfg.step_time = util::milliseconds(2);
    acfg.update_every = 5;
    acfg.interact_every = 1;
    acfg.interaction_window = util::milliseconds(2);
    app_ = std::make_unique<app::SyntheticApp>(sut_, acfg, app::SyntheticSpec{});
    sut_.add_node("app", app_.get());
    for (int i = 0; i < kClients; ++i) {
      sut_.add_remote("client" + std::to_string(i), "127.0.0.1", 0);
    }
    server_->attach(NodeId{0});
    app_->attach(NodeId{1});
    ASSERT_TRUE(sut_.start().ok());
    sut_.post(NodeId{0}, [this] { server_->start(); });
    sut_.post(NodeId{1}, [this] { app_->connect(NodeId{0}); });

    gen_.add_remote("server");
    gen_.add_remote("app");
    ASSERT_TRUE(gen_.add_connection(0, "127.0.0.1", sut_.listen_port()).ok());
    ASSERT_TRUE(gen_.add_connection(1, "127.0.0.1", sut_.listen_port()).ok());
    for (int i = 0; i < kClients; ++i) {
      core::ClientConfig cfg;
      cfg.user = "user" + std::to_string(i);
      cfg.request_timeout = util::seconds(5);
      auto c = std::make_unique<core::DiscoverClient>(gen_, cfg);
      const NodeId id = gen_.add_node("client" + std::to_string(i), c.get());
      c->attach(id);
      c->set_server(NodeId{0});
      gen_.bind(id, static_cast<std::size_t>(i) % kConns);
      clients_.push_back(std::move(c));
    }
    ASSERT_TRUE(gen_.connect_all().ok());
  }

  void TearDown() override {
    gen_.close_all();
    sut_.stop();
  }

  net::OsNetwork sut_;
  GenNetwork gen_{kConns};
  std::unique_ptr<core::DiscoverServer> server_;
  std::unique_ptr<app::SyntheticApp> app_;
  std::vector<std::unique_ptr<core::DiscoverClient>> clients_;
};

TEST_F(GenNetworkTest, PortalSessionCompletesOverTcp) {
  // Login until the app is listed (it registers asynchronously).
  proto::AppId app;
  bool listed = false;
  std::function<void()> try_login = [&] {
    clients_[0]->login([&](util::Result<proto::LoginReply> r) {
      if (r.ok() && r.value().ok && !r.value().applications.empty()) {
        app = r.value().applications[0].id;
        listed = true;
      } else {
        gen_.schedule(clients_[0]->node(), util::milliseconds(2), try_login);
      }
    });
  };
  try_login();
  ASSERT_TRUE(gen_.run_until([&] { return listed; }, 10 * kSec));

  bool selected = false, commanded = false, polled = false;
  clients_[0]->select_app(app, [&](util::Result<proto::SelectAppReply> r) {
    ASSERT_TRUE(r.ok() && r.value().ok);
    selected = true;
    clients_[0]->send_command(
        app, proto::CommandKind::get_param, "p0", {},
        [&](util::Result<proto::CommandAck> a) {
          ASSERT_TRUE(a.ok());
          EXPECT_TRUE(a.value().accepted) << a.value().message;
          commanded = true;
        });
  });
  ASSERT_TRUE(gen_.run_until([&] { return commanded; }, 10 * kSec));
  EXPECT_TRUE(selected);
  // Poll until the app's updates (and the command's response) arrive.
  std::function<void()> poll_once = [&] {
    clients_[0]->poll(app, [&](util::Result<proto::PollReply> r) {
      ASSERT_TRUE(r.ok() && r.value().ok);
      if (clients_[0]->events_of_kind(proto::EventKind::update) > 0 &&
          clients_[0]->events_received() > 1) {
        polled = true;
      } else {
        gen_.schedule(clients_[0]->node(), util::milliseconds(2), poll_once);
      }
    });
  };
  poll_once();
  ASSERT_TRUE(gen_.run_until([&] { return polled; }, 10 * kSec));
  EXPECT_EQ(gen_.stats().dropped_no_route, 0u);
  EXPECT_EQ(gen_.stats().protocol_errors, 0u);
}

TEST_F(GenNetworkTest, NeverExceedsConnectionCap) {
  EXPECT_FALSE(gen_.add_connection(kConns, "127.0.0.1", sut_.listen_port()).ok());
  EXPECT_EQ(gen_.open_connections(), kConns);
  // Every client logs in; the server side sees exactly kConns sockets.
  int done = 0;
  for (auto& c : clients_) {
    c->login([&](util::Result<proto::LoginReply> r) {
      EXPECT_TRUE(r.ok());
      ++done;
    });
  }
  ASSERT_TRUE(gen_.run_until([&] { return done == kClients; }, 10 * kSec));
  EXPECT_EQ(gen_.open_connections(), kConns);
  EXPECT_EQ(sut_.os_stats().accepted, kConns);
}

TEST_F(GenNetworkTest, HelloRoutesRepliesToEveryAdvertisedClient) {
  std::size_t advertised = 0;
  for (std::size_t c = 0; c < kConns; ++c) advertised += gen_.advertised(c).size();
  EXPECT_EQ(advertised, static_cast<std::size_t>(kClients));
  // A reply for each client can only arrive if the server adopted that
  // client's id from the HELLO of the connection it is bound to.
  std::vector<bool> got(kClients, false);
  for (int i = 0; i < kClients; ++i) {
    clients_[i]->login([&got, i](util::Result<proto::LoginReply> r) {
      got[static_cast<std::size_t>(i)] = r.ok();
    });
  }
  ASSERT_TRUE(gen_.run_until(
      [&] { return std::all_of(got.begin(), got.end(), [](bool b) { return b; }); },
      10 * kSec));
  EXPECT_EQ(gen_.stats().frames_in, static_cast<std::uint64_t>(kClients));
}

}  // namespace
}  // namespace portalbench
