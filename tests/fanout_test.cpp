// Fan-out fast path (DESIGN.md "Fan-out fast path"):
//  * property test — the per-app subscriber index always agrees with a
//    brute-force scan of the session table, across 10k randomized
//    subscribe / unsubscribe / drop / crash operations;
//  * regression — drop_session still releases remote lock interest and
//    unsubscribes remote apps once their local watcher refcount hits zero;
//  * wire compatibility — encode_poll_reply_shared is byte-identical to
//    encode_body(PollReply);
//  * equivalence — the subscriber-index fan-out delivers exactly the
//    per-client event streams pinned in tests/golden/fanout_collab_round.txt,
//    which were recorded by the full-session scan it replaced (the scan
//    re-encoded each event per recipient).  To re-record after an intended
//    delivery change:
//      DISCOVER_GOLDEN_UPDATE=1 build/tests/fanout_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/synthetic.h"
#include "util/rng.h"
#include "wire/cdr.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;

bool sync_logout(net::Network& network, core::DiscoverClient& client) {
  bool done = false;
  client.logout([&done](util::Result<proto::CollabAck>) { done = true; });
  return workload::wait_for(network, [&] { return done; });
}

// ---------------------------------------------------------------------------
// Property: index == brute force, 10k randomized ops
// ---------------------------------------------------------------------------

TEST(FanoutIndexProperty, IndexMatchesBruteForceUnder10kRandomOps) {
  util::Rng rng(0xfa41d0ULL);
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  cfg.server_template.session_max_idle = util::seconds(2);
  cfg.server_template.remote_poll_period = util::milliseconds(50);
  workload::Scenario scenario(cfg);
  auto& host = scenario.add_server("host", 1);
  auto& peer = scenario.add_server("peer", 2);

  constexpr int kClients = 8;
  std::vector<security::AclEntry> acl;
  for (int i = 0; i < kClients; ++i) {
    acl.push_back({"u" + std::to_string(i), Privilege::read_write, 0});
  }
  app::AppConfig app_cfg;
  app_cfg.name = "sim";
  app_cfg.acl = acl;
  app_cfg.step_time = util::milliseconds(5);
  app_cfg.update_every = 0;  // quiet app: the test drives all traffic
  app_cfg.interact_every = 0;
  auto& app_a =
      scenario.add_app<app::SyntheticApp>(host, app_cfg, app::SyntheticSpec{});
  app::AppConfig app_cfg_b = app_cfg;
  app_cfg_b.name = "sim2";
  auto& app_b =
      scenario.add_app<app::SyntheticApp>(peer, app_cfg_b, app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app_a.registered() && app_b.registered() &&
           host.peer_count() == 1 && peer.peer_count() == 1;
  }));
  const std::vector<proto::AppId> app_ids{app_a.app_id(), app_b.app_id()};

  struct Member {
    core::DiscoverClient* client = nullptr;
    core::DiscoverServer* server = nullptr;
    bool logged_in = false;
  };
  std::vector<Member> members;
  for (int i = 0; i < kClients; ++i) {
    Member m;
    m.server = i % 2 == 0 ? &host : &peer;
    m.client =
        &scenario.add_client("u" + std::to_string(i), *m.server);
    members.push_back(m);
  }

  auto check = [&](int iter) {
    ASSERT_TRUE(host.subscriber_index_consistent())
        << "host index diverged at iteration " << iter;
    ASSERT_TRUE(peer.subscriber_index_consistent())
        << "peer index diverged at iteration " << iter;
  };

  constexpr int kIterations = 10000;
  for (int i = 0; i < kIterations; ++i) {
    Member& m = members[rng.below(members.size())];
    if (!m.logged_in) {
      const auto r = workload::sync_login(scenario.net(), *m.client);
      m.logged_in = r.ok() && r.value().ok;
    } else {
      const double dice = rng.uniform();
      if (dice < 0.55) {
        // subscribe (idempotent on re-select)
        const proto::AppId& id = app_ids[rng.below(app_ids.size())];
        (void)workload::sync_select(scenario.net(), *m.client, id);
      } else if (dice < 0.70) {
        // group churn on an existing sub (must never disturb the index)
        const proto::AppId& id = app_ids[rng.below(app_ids.size())];
        const proto::GroupOp op = rng.chance(0.5)
                                      ? proto::GroupOp::join_subgroup
                                      : proto::GroupOp::enable_push;
        (void)workload::sync_group_op(scenario.net(), *m.client, id, op,
                                      "team");
      } else if (dice < 0.85) {
        // unsubscribe-all via logout
        (void)sync_logout(scenario.net(), *m.client);
        m.logged_in = false;
      } else if (dice < 0.93) {
        // crash: the client vanishes mid-session; the idle sweep must drop
        // the server-side session (and its index rows) without its help.
        scenario.net().crash_node(m.client->node());
        scenario.run_for(cfg.server_template.session_max_idle +
                         util::seconds(3));
        scenario.net().restart_node(m.client->node());
        m.logged_in = false;
      } else {
        scenario.run_for(util::milliseconds(rng.below(200)));
      }
    }
    check(i);
    if (HasFatalFailure()) return;
  }

  // Teardown sweep: everyone leaves; the index must end empty.
  for (Member& m : members) {
    if (m.logged_in) (void)sync_logout(scenario.net(), *m.client);
  }
  scenario.run_for(util::seconds(10));
  check(kIterations);
  EXPECT_EQ(host.subscriber_count(app_ids[0]), 0u);
  EXPECT_EQ(peer.subscriber_count(app_ids[1]), 0u);
}

// ---------------------------------------------------------------------------
// Regression: drop_session releases remote locks + refcounted unsubscribe
// ---------------------------------------------------------------------------

TEST(FanoutDropSession, ReleasesRemoteLocksAndUnsubscribesAtZeroWatchers) {
  workload::ScenarioConfig cfg;
  cfg.server_template.peer_refresh_period = util::milliseconds(100);
  workload::Scenario scenario(cfg);
  auto& host = scenario.add_server("host", 1);
  auto& peer = scenario.add_server("peer", 2);

  app::AppConfig app_cfg;
  app_cfg.name = "sim";
  app_cfg.acl = workload::make_acl({{"alice", Privilege::steer},
                                    {"bob", Privilege::read_write}});
  app_cfg.step_time = util::milliseconds(5);
  app_cfg.update_every = 0;
  app_cfg.interact_every = 0;
  auto& app =
      scenario.add_app<app::SyntheticApp>(host, app_cfg, app::SyntheticSpec{});
  // Level-1 auth is per-server (ACLs belong to local apps): the watchers
  // log in at the peer, so it needs an identity app knowing them.
  app::AppConfig id_cfg = app_cfg;
  id_cfg.name = "identity";
  auto& identity =
      scenario.add_app<app::SyntheticApp>(peer, id_cfg, app::SyntheticSpec{});
  ASSERT_TRUE(scenario.run_until([&] {
    return app.registered() && identity.registered() &&
           host.peer_count() == 1 && peer.peer_count() == 1;
  }));
  const proto::AppId id = app.app_id();

  // Two watchers at the peer server: the remote subscription must survive
  // the first logout (refcount 2 -> 1) and end at the second (1 -> 0).
  auto& alice = scenario.add_client("alice", peer);
  auto& bob = scenario.add_client("bob", peer);
  ASSERT_TRUE(workload::sync_onboard_steerer(scenario.net(), alice, id));
  ASSERT_TRUE(workload::sync_login(scenario.net(), bob).value().ok);
  ASSERT_TRUE(workload::sync_select(scenario.net(), bob, id).value().ok);

  EXPECT_EQ(peer.subscriber_count(id), 2u);
  EXPECT_TRUE(peer.app_remote_subscribed(id));
  ASSERT_TRUE(host.lock_holder(id).has_value());
  EXPECT_EQ(host.lock_holder(id)->user, "alice");

  // Alice leaves: her lock interest at the remote host must be forgotten,
  // but bob still watches, so the peer stays subscribed.
  ASSERT_TRUE(sync_logout(scenario.net(), alice));
  ASSERT_TRUE(scenario.run_until([&] { return !host.lock_holder(id); }));
  EXPECT_EQ(peer.subscriber_count(id), 1u);
  EXPECT_TRUE(peer.app_remote_subscribed(id));

  // Bob leaves: watcher refcount hits zero -> unsubscribe at the host.
  ASSERT_TRUE(sync_logout(scenario.net(), bob));
  EXPECT_EQ(peer.subscriber_count(id), 0u);
  EXPECT_FALSE(peer.app_remote_subscribed(id));
  ASSERT_TRUE(scenario.run_until([&] {
    return host.subscriber_count(id) == 0;
  }));
  EXPECT_TRUE(host.subscriber_index_consistent());
  EXPECT_TRUE(peer.subscriber_index_consistent());
}

// ---------------------------------------------------------------------------
// Wire compatibility: shared-event encoding == struct encoding
// ---------------------------------------------------------------------------

TEST(FanoutWireCompat, SharedPollReplyEncodingIsByteIdentical) {
  proto::ClientEvent a;
  a.kind = proto::EventKind::chat;
  a.seq = 41;
  a.app = proto::AppId{3, 7};
  a.at = 123456789;
  a.user = "alice";
  a.text = "hello group";
  a.subgroup = "team";
  a.shared = true;
  proto::ClientEvent b;
  b.kind = proto::EventKind::response;
  b.seq = 42;
  b.app = proto::AppId{3, 7};
  b.user = "bob";
  b.request_id = 9;
  b.param = "dt";
  b.value = 0.25;
  b.metrics = {{"residual", 0.5}, {"iters", 12.0}};
  b.iteration = 99;

  proto::PollReply reply;
  reply.ok = true;
  reply.message = "ok";
  reply.events = {a, b};
  reply.backlog = 5;

  const std::vector<proto::SharedClientEvent> shared = {
      std::make_shared<const proto::ClientEvent>(a),
      std::make_shared<const proto::ClientEvent>(b)};
  const util::Bytes via_struct = proto::encode_body(reply);
  const util::Bytes via_shared =
      proto::encode_poll_reply_shared(true, "ok", shared, 5);
  ASSERT_EQ(via_struct, via_shared);

  const proto::PollReply decoded = proto::decode_poll_reply(via_shared);
  ASSERT_EQ(decoded.events.size(), 2u);
  EXPECT_EQ(decoded.events[0], a);
  EXPECT_EQ(decoded.events[1], b);
  EXPECT_EQ(decoded.backlog, 5u);
}

// ---------------------------------------------------------------------------
// Equivalence: fast path delivers exactly what the legacy scan delivered
// ---------------------------------------------------------------------------

std::vector<std::vector<proto::ClientEvent>> run_collab_round() {
  workload::Scenario scenario;
  auto& server = scenario.add_server("s", 1);

  app::AppConfig app_cfg;
  app_cfg.name = "sim";
  app_cfg.acl = workload::make_acl({{"u0", Privilege::steer},
                                    {"u1", Privilege::read_write},
                                    {"u2", Privilege::read_write},
                                    {"u3", Privilege::read_write}});
  app_cfg.step_time = util::milliseconds(2);
  app_cfg.update_every = 5;
  app_cfg.interact_every = 0;
  auto& app =
      scenario.add_app<app::SyntheticApp>(server, app_cfg, app::SyntheticSpec{});
  if (!scenario.run_until([&] { return app.registered(); })) return {};
  const proto::AppId id = app.app_id();

  std::vector<core::DiscoverClient*> clients;
  for (int i = 0; i < 4; ++i) {
    auto& c = scenario.add_client("u" + std::to_string(i), server);
    if (!workload::sync_login(scenario.net(), c).value().ok) return {};
    if (!workload::sync_select(scenario.net(), c, id).value().ok) return {};
    clients.push_back(&c);
  }
  // Mixed delivery classes: u1 gets push, u2 joins a sub-group, u3 opts out
  // of collaboration.
  (void)workload::sync_group_op(scenario.net(), *clients[1], id,
                                proto::GroupOp::enable_push, "");
  (void)workload::sync_group_op(scenario.net(), *clients[2], id,
                                proto::GroupOp::join_subgroup, "team");
  (void)workload::sync_group_op(scenario.net(), *clients[3], id,
                                proto::GroupOp::disable_collab, "");

  (void)workload::sync_collab_post(scenario.net(), *clients[0], id,
                                   proto::EventKind::chat, "hi all");
  (void)workload::sync_collab_post(scenario.net(), *clients[2], id,
                                   proto::EventKind::chat, "team only");
  (void)workload::sync_command(scenario.net(), *clients[0], id,
                               proto::CommandKind::query_status, "");
  scenario.run_for(util::milliseconds(500));
  for (int round = 0; round < 5; ++round) {
    for (auto* c : clients) (void)workload::sync_poll(scenario.net(), *c, id);
    scenario.run_for(util::milliseconds(50));
  }

  std::vector<std::vector<proto::ClientEvent>> out;
  for (auto* c : clients) out.push_back(c->received_events());
  return out;
}

/// One line per delivered event: the recipient's index, then the event's
/// CDR encoding in hex.
std::vector<std::string> event_stream_lines(
    const std::vector<std::vector<proto::ClientEvent>>& per_client) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < per_client.size(); ++i) {
    for (const proto::ClientEvent& ev : per_client[i]) {
      wire::Encoder e;
      proto::encode(e, ev);
      std::string line = "u" + std::to_string(i) + ' ';
      for (const std::uint8_t b : e.data()) {
        line.push_back(kHex[b >> 4]);
        line.push_back(kHex[b & 0xf]);
      }
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

std::string fanout_golden_path() {
  return std::string(DISCOVER_GOLDEN_DIR) + "/fanout_collab_round.txt";
}

TEST(FanoutEquivalence, FastPathMatchesLegacyScan) {
  const auto got = event_stream_lines(run_collab_round());
  ASSERT_FALSE(got.empty());
  if (std::getenv("DISCOVER_GOLDEN_UPDATE") != nullptr) {
    std::ofstream out(fanout_golden_path());
    for (const auto& line : got) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << fanout_golden_path();
    GTEST_SKIP() << "fixture re-recorded: " << fanout_golden_path();
  }

  std::ifstream in(fanout_golden_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << fanout_golden_path();
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i]) << "first divergence at event line " << i;
  }
  EXPECT_EQ(got.size(), want.size());
}

}  // namespace
}  // namespace discover
