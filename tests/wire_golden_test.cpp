// Golden wire fixture: a fixed SimNetwork session between two single-core
// servers, with every byte either server sends (HTTP replies and pushes,
// GIOP requests and replies, app commands, control frames) compared against
// tests/golden/two_server_session.txt.
//
// The session covers login (alone, then with a peer), select of a local and
// a remote application, set_param/get_param on both, collab posts and
// polls, history of a local and a remote application, a viz render, and the
// /discover/metrics and /discover/trace text scrapes of both servers.  Any
// refactor of the request paths must leave these bytes unchanged.
//
// To re-record the fixture after an intended wire change:
//   DISCOVER_GOLDEN_UPDATE=1 build/tests/wire_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

#include "app/reservoir.h"
#include "app/synthetic.h"
#include "http/http_message.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;
using workload::make_acl;

/// Forwards to the simulation and records every message the wrapped
/// servers send.  Only the servers use this view of the network, so the
/// log holds exactly their output, in send order.
class TapNetwork final : public net::Network {
 public:
  explicit TapNetwork(net::SimNetwork& inner) : inner_(inner) {}

  net::NodeId add_node(std::string name, net::MessageHandler* handler,
                       net::DomainId domain) override {
    return inner_.add_node(std::move(name), handler, domain);
  }
  void send(net::NodeId from, net::NodeId to, net::Channel channel,
            net::Payload payload) override {
    std::ostringstream line;
    line << inner_.node_name(from) << "->" << inner_.node_name(to) << ' '
         << static_cast<int>(channel) << ' ';
    static constexpr char kHex[] = "0123456789abcdef";
    for (const std::uint8_t b : payload.bytes()) {
      line << kHex[b >> 4] << kHex[b & 0xf];
    }
    log_.push_back(line.str());
    inner_.send(from, to, channel, std::move(payload));
  }
  net::TimerId schedule(net::NodeId node, util::Duration delay,
                        std::function<void()> fn) override {
    return inner_.schedule(node, delay, std::move(fn));
  }
  void cancel(net::TimerId id) override { inner_.cancel(id); }
  [[nodiscard]] util::TimePoint now() const override { return inner_.now(); }
  [[nodiscard]] const util::Clock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] net::TrafficStats traffic() const override {
    return inner_.traffic();
  }
  void reset_traffic() override { inner_.reset_traffic(); }
  [[nodiscard]] const std::string& node_name(net::NodeId id) const override {
    return inner_.node_name(id);
  }
  [[nodiscard]] net::DomainId node_domain(net::NodeId id) const override {
    return inner_.node_domain(id);
  }

  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  net::SimNetwork& inner_;
  std::vector<std::string> log_;
};

/// Browser-style GET sender: replies land here; the request carries the
/// client's session cookie so the server sees that client's HTTP session.
class RawClient final : public net::MessageHandler {
 public:
  void on_message(const net::Message& msg) override {
    auto parsed = http::parse_response(msg.payload);
    status = parsed.ok() ? parsed.value().status : -1;
  }
  int status = 0;
};

std::string golden_path() {
  return std::string(DISCOVER_GOLDEN_DIR) + "/two_server_session.txt";
}

std::vector<std::string> record_session() {
  workload::Scenario scenario;
  net::SimNetwork& sim = scenario.net();
  TapNetwork tap(sim);

  core::ServerConfig server_cfg;
  server_cfg.peer_refresh_period = util::milliseconds(100);
  std::vector<std::unique_ptr<core::DiscoverServer>> servers;
  const auto add_server = [&](const std::string& name, std::uint32_t domain) {
    core::ServerConfig c = server_cfg;
    c.name = name;
    auto server = std::make_unique<core::DiscoverServer>(tap, c);
    const net::NodeId node =
        sim.add_node("server:" + name, server.get(), net::DomainId{domain});
    server->attach(node);
    server->set_registry(scenario.registry().naming_ref(),
                         scenario.registry().trader_ref());
    server->start();
    servers.push_back(std::move(server));
    return servers.back().get();
  };

  core::DiscoverServer& rutgers = *add_server("rutgers", 1);
  app::AppConfig local_cfg;
  local_cfg.name = "rutgers-local";
  local_cfg.acl = make_acl({{"alice", Privilege::steer},
                            {"bob", Privilege::read_only}});
  local_cfg.step_time = util::milliseconds(2);
  local_cfg.update_every = 5;
  local_cfg.interact_every = 10;
  local_cfg.interaction_window = util::milliseconds(2);
  auto& local_app = scenario.add_app<app::SyntheticApp>(
      rutgers, local_cfg, app::SyntheticSpec{});
  EXPECT_TRUE(scenario.run_until([&] { return local_app.registered(); }));

  auto& alice = scenario.add_client("alice", rutgers);
  // Login with no peer known yet.
  EXPECT_TRUE(workload::sync_login(sim, alice).value().ok);

  core::DiscoverServer& texas = *add_server("texas", 2);
  app::AppConfig remote_cfg;
  remote_cfg.name = "reservoir";
  remote_cfg.acl = make_acl({{"alice", Privilege::steer},
                             {"carol", Privilege::steer}});
  remote_cfg.step_time = util::milliseconds(1);
  remote_cfg.update_every = 5;
  remote_cfg.interact_every = 10;
  remote_cfg.interaction_window = util::milliseconds(2);
  auto& remote_app =
      scenario.add_app<app::ReservoirApp>(texas, remote_cfg);
  EXPECT_TRUE(scenario.run_until([&] { return remote_app.registered(); }));
  EXPECT_TRUE(scenario.run_until([&] {
    return rutgers.peer_count() == 1 && texas.peer_count() == 1;
  }));
  const proto::AppId local_id = local_app.app_id();
  const proto::AppId remote_id = remote_app.app_id();

  // Login with a peer: the reply aggregates texas' reservoir.
  EXPECT_EQ(workload::sync_login(sim, alice).value().applications.size(), 2u);
  // Select + lock on the local and the remote application.
  EXPECT_TRUE(workload::sync_onboard_steerer(sim, alice, local_id));
  EXPECT_TRUE(workload::sync_onboard_steerer(sim, alice, remote_id));
  auto& carol = scenario.add_client("carol", texas);
  EXPECT_TRUE(workload::sync_login(sim, carol).value().ok);
  EXPECT_TRUE(workload::sync_select(sim, carol, remote_id).value().ok);

  // Steering: set and read a parameter locally and remotely.
  for (const auto& [app, param, value] :
       {std::tuple{local_id, "param_0", 42.0},
        std::tuple{remote_id, "injection_rate", 750.0}}) {
    EXPECT_TRUE(workload::sync_command(sim, alice, app,
                                       proto::CommandKind::set_param, param,
                                       proto::ParamValue{value})
                    .value().accepted);
    EXPECT_TRUE(workload::sync_command(sim, alice, app,
                                       proto::CommandKind::get_param, param)
                    .value().accepted);
  }
  scenario.run_for(util::milliseconds(50));

  // Collaboration: chat on both apps, then polls at both servers.
  EXPECT_TRUE(workload::sync_collab_post(sim, alice, local_id,
                                         proto::EventKind::chat, "local hi")
                  .value().ok);
  EXPECT_TRUE(workload::sync_collab_post(sim, alice, remote_id,
                                         proto::EventKind::chat, "remote hi")
                  .value().ok);
  EXPECT_TRUE(workload::sync_collab_post(sim, carol, remote_id,
                                         proto::EventKind::whiteboard, "ink")
                  .value().ok);
  scenario.run_for(util::milliseconds(100));
  EXPECT_TRUE(workload::sync_poll(sim, alice, local_id).value().ok);
  EXPECT_TRUE(workload::sync_poll(sim, alice, remote_id).value().ok);
  EXPECT_TRUE(workload::sync_poll(sim, carol, remote_id).value().ok);

  // Session archive: local and remote history.
  EXPECT_TRUE(workload::sync_history(sim, alice, local_id, 0, 16).value().ok);
  EXPECT_TRUE(
      workload::sync_history(sim, alice, remote_id, 0, 16).value().ok);

  // Browser GETs: a viz render, then the metrics and trace scrapes.
  RawClient raw;
  const net::NodeId raw_node = sim.add_node("browser", &raw);
  const auto get = [&](core::DiscoverServer& server, const std::string& path,
                       const std::string& cookie) {
    http::HttpRequest req;
    req.method = http::Method::get;
    req.path = path;
    if (!cookie.empty()) req.headers.set("Cookie", cookie);
    raw.status = 0;
    sim.send(raw_node, server.node(), net::Channel::http,
             http::serialize(req));
    EXPECT_TRUE(sim.run_until([&] { return raw.status != 0; }));
    return raw.status;
  };
  const std::string cookie = alice.http().cookie_for(rutgers.node());
  EXPECT_EQ(get(rutgers,
                std::string(core::kPathViz) + "?app=" + local_id.to_string() +
                    "&metric=metric_0&n=20",
                cookie),
            200);
  EXPECT_EQ(get(rutgers,
                std::string(core::kPathViz) + "?app=" +
                    remote_id.to_string() + "&metric=oil_rate",
                cookie),
            307);
  for (core::DiscoverServer* server : {&rutgers, &texas}) {
    EXPECT_EQ(get(*server, core::kPathMetrics, ""), 200);
    EXPECT_EQ(get(*server, core::kPathTrace, ""), 200);
  }
  return tap.log();
}

TEST(WireGoldenTest, TwoServerSessionMatchesFixture) {
  const std::vector<std::string> got = record_session();
  ASSERT_GT(got.size(), 50u);

  if (std::getenv("DISCOVER_GOLDEN_UPDATE") != nullptr) {
    std::ofstream out(golden_path());
    for (const auto& line : got) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    GTEST_SKIP() << "fixture re-recorded: " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << golden_path();
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);

  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i]) << "first wire difference at message " << i;
  }
  EXPECT_EQ(got.size(), want.size());
}

TEST(WireGoldenTest, SessionIsDeterministic) {
  EXPECT_EQ(record_session(), record_session());
}

}  // namespace
}  // namespace discover
