// The "pool of services" model (paper §3): generic services published in
// the trader under their own service type, discovered at runtime, accessed
// through level-2 interfaces only — and allowed to disappear.
#include <gtest/gtest.h>

#include "app/synthetic.h"
#include "core/service_host.h"
#include "workload/scenario.h"
#include "workload/sync_ops.h"

namespace discover {
namespace {

using security::Privilege;
using workload::make_acl;

class ServicePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ScenarioConfig cfg;
    cfg.server_template.report_to_monitoring = true;
    cfg.server_template.monitoring_period = util::milliseconds(50);
    cfg.server_template.peer_refresh_period = util::milliseconds(100);
    scenario_ = std::make_unique<workload::Scenario>(cfg);

    host_ = std::make_unique<core::ServiceHost>(scenario_->net());
    const net::NodeId node =
        scenario_->net().add_node("monitoring", host_.get(),
                                  net::DomainId{0});
    host_->attach(node);
    host_->set_registry(scenario_->registry().trader_ref());
    monitoring_ = std::make_shared<core::MonitoringService>(
        scenario_->net().clock());
    monitoring_ref_ = host_->publish(core::kMonitoringServiceType,
                                     monitoring_, {{"name", "monitor-1"}});
  }

  std::unique_ptr<workload::Scenario> scenario_;
  std::unique_ptr<core::ServiceHost> host_;
  std::shared_ptr<core::MonitoringService> monitoring_;
  orb::ObjectRef monitoring_ref_;
};

TEST_F(ServicePoolTest, ServersDiscoverAndReportAtRuntime) {
  auto& s1 = scenario_->add_server("alpha", 1);
  auto& s2 = scenario_->add_server("beta", 2);
  app::AppConfig cfg;
  cfg.name = "sim";
  cfg.acl = make_acl({{"alice", Privilege::steer}});
  cfg.step_time = util::milliseconds(1);
  cfg.update_every = 5;
  cfg.interact_every = 0;
  scenario_->add_app<app::SyntheticApp>(s1, cfg, app::SyntheticSpec{});
  (void)s2;

  ASSERT_TRUE(scenario_->run_until(
      [&] { return monitoring_->reporter_count() == 2; },
      util::seconds(10)));
  EXPECT_GT(monitoring_->reports_received(), 0u);
}

TEST_F(ServicePoolTest, SnapshotAggregatesReports) {
  auto& s1 = scenario_->add_server("alpha", 1);
  app::AppConfig cfg;
  cfg.name = "sim";
  cfg.acl = make_acl({{"alice", Privilege::steer}});
  cfg.step_time = util::milliseconds(1);
  cfg.update_every = 5;
  cfg.interact_every = 0;
  auto& app = scenario_->add_app<app::SyntheticApp>(s1, cfg,
                                                    app::SyntheticSpec{});
  ASSERT_TRUE(scenario_->run_until([&] { return app.registered(); }));
  ASSERT_TRUE(scenario_->run_until(
      [&] { return monitoring_->reports_received() >= 3; },
      util::seconds(10)));

  // Read the snapshot through the ORB like any other pool consumer.
  bool checked = false;
  host_->orb().invoke(monitoring_ref_, "snapshot", wire::Encoder{},
                      [&](util::Result<util::Bytes> r) {
                        ASSERT_TRUE(r.ok());
                        wire::Decoder d(r.value());
                        const std::uint32_t n = d.u32();
                        ASSERT_EQ(n, 1u);
                        EXPECT_EQ(d.str(), "alpha");
                        const auto metrics =
                            d.map<std::string, std::int64_t>(
                                [](wire::Decoder& dd) { return dd.str(); },
                                [](wire::Decoder& dd) { return dd.i64(); });
                        EXPECT_EQ(metrics.at("apps"), 1);
                        EXPECT_GT(metrics.at("updates_processed"), 0);
                        checked = true;
                      });
  ASSERT_TRUE(scenario_->run_until([&] { return checked; }));
}

TEST_F(ServicePoolTest, ServersSurviveServiceWithdrawal) {
  auto& s1 = scenario_->add_server("alpha", 1);
  app::AppConfig cfg;
  cfg.name = "sim";
  cfg.acl = make_acl({{"alice", Privilege::steer}});
  cfg.step_time = util::milliseconds(1);
  cfg.update_every = 5;
  cfg.interact_every = 0;
  auto& app = scenario_->add_app<app::SyntheticApp>(s1, cfg,
                                                    app::SyntheticSpec{});
  ASSERT_TRUE(scenario_->run_until(
      [&] { return monitoring_->reports_received() >= 1; },
      util::seconds(10)));

  // The service disappears from the pool; the middleware must keep
  // functioning (§3: availability is a runtime property).
  host_->withdraw_all();
  scenario_->run_for(util::milliseconds(500));

  auto& alice = scenario_->add_client("alice", s1);
  ASSERT_TRUE(
      workload::sync_onboard_steerer(scenario_->net(), alice, app.app_id()));
  auto ack = workload::sync_command(scenario_->net(), alice, app.app_id(),
                                    proto::CommandKind::set_param, "param_0",
                                    proto::ParamValue{2.0});
  EXPECT_TRUE(ack.value().accepted);
}

}  // namespace
}  // namespace discover
