// Tests for the rack topology module and its integration with the
// controller (footnote-1 group invitations, bandwidth-aware migrations).

#include <gtest/gtest.h>

#include "ecocloud/net/topology.hpp"
#include "ecocloud/scenario/scenario.hpp"

using namespace ecocloud;

TEST(Topology, RoundRobinLayout) {
  net::TopologyConfig config;
  config.num_racks = 3;
  net::Topology topology(10, config);
  EXPECT_EQ(topology.num_racks(), 3u);
  EXPECT_EQ(topology.num_servers(), 10u);
  EXPECT_EQ(topology.rack_of(0), 0u);
  EXPECT_EQ(topology.rack_of(1), 1u);
  EXPECT_EQ(topology.rack_of(2), 2u);
  EXPECT_EQ(topology.rack_of(3), 0u);
  EXPECT_EQ(topology.servers_in_rack(0).size(), 4u);  // 0, 3, 6, 9
  EXPECT_EQ(topology.servers_in_rack(1).size(), 3u);
  EXPECT_TRUE(topology.same_rack(0, 9));
  EXPECT_FALSE(topology.same_rack(0, 1));
}

TEST(Topology, MoreRacksThanServersCollapses) {
  net::TopologyConfig config;
  config.num_racks = 10;
  net::Topology topology(4, config);
  EXPECT_EQ(topology.num_racks(), 4u);
  for (dc::ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(topology.servers_in_rack(topology.rack_of(s)).size(), 1u);
  }
}

TEST(Topology, BandwidthAndTransferTimes) {
  net::TopologyConfig config;
  config.num_racks = 2;
  config.intra_rack_gbps = 10.0;  // 1250 MB/s
  config.inter_rack_gbps = 4.0;   // 500 MB/s
  net::Topology topology(4, config);
  // Servers 0 and 2 share rack 0; 0 and 1 do not.
  EXPECT_DOUBLE_EQ(topology.bandwidth_mb_per_s(0, 2), 1250.0);
  EXPECT_DOUBLE_EQ(topology.bandwidth_mb_per_s(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(topology.transfer_time_s(0, 2, 2500.0), 2.0);
  EXPECT_DOUBLE_EQ(topology.transfer_time_s(0, 1, 2500.0), 5.0);
  EXPECT_DOUBLE_EQ(topology.transfer_time_s(0, 1, 0.0), 0.0);
}

TEST(Topology, Validation) {
  EXPECT_THROW(net::Topology(0), std::invalid_argument);
  net::TopologyConfig bad;
  bad.num_racks = 0;
  EXPECT_THROW(net::Topology(4, bad), std::invalid_argument);
  net::TopologyConfig bad_bw;
  bad_bw.inter_rack_gbps = 0.0;
  EXPECT_THROW(net::Topology(4, bad_bw), std::invalid_argument);
  net::Topology topology(4);
  EXPECT_THROW((void)topology.rack_of(99), std::invalid_argument);
  EXPECT_THROW((void)topology.transfer_time_s(0, 1, -1.0), std::invalid_argument);
}

TEST(TopologyIntegration, RackScopedInvitationsContactOneRack) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 32;
  config.num_vms = 480;
  config.horizon_s = 3.0 * sim::kHour;
  net::TopologyConfig topology;
  topology.num_racks = 4;
  config.topology = topology;
  scenario::DailyScenario daily(config);
  daily.run();

  ASSERT_NE(daily.topology(), nullptr);
  EXPECT_EQ(daily.topology()->num_racks(), 4u);
  // An invitation round can contact at most one rack's worth of servers.
  const core::MessageLog& messages = daily.ecocloud()->messages();
  const double per_round = static_cast<double>(messages.invitations_sent) /
                           static_cast<double>(messages.invitation_rounds);
  EXPECT_LE(per_round, 8.0 + 1e-9);  // 32 servers / 4 racks
  // The system still consolidates and hosts everything.
  EXPECT_EQ(daily.datacenter().placed_vm_count(), 480u);
  EXPECT_LT(daily.datacenter().active_server_count(), 32u);
}

TEST(TopologyIntegration, MigrationTakesTransferTimeIntoAccount) {
  // Both servers share a rack (destination searches are rack-scoped); the
  // migration must take the fixed latency plus the RAM transfer over the
  // intra-rack link.
  sim::Simulator simulator;
  dc::DataCenter datacenter;
  const auto src = datacenter.add_server(6, 2000.0, 32768.0);
  const auto dst = datacenter.add_server(6, 2000.0, 32768.0);
  net::TopologyConfig tconfig;
  tconfig.num_racks = 1;
  tconfig.intra_rack_gbps = 1.0;  // 125 MB/s -> 4000 MB take 32 s
  net::Topology topology(2, tconfig);

  core::EcoCloudParams params;
  params.monitor_period_s = 5.0;
  params.migration_latency_s = 10.0;
  core::EcoCloudController controller(simulator, datacenter, params,
                                      util::Rng(3));
  controller.set_topology(&topology);

  controller.force_activate(src);
  controller.force_activate(dst);
  const auto vm = datacenter.create_vm(1000.0, 4000.0);  // 4 GB of RAM
  datacenter.place_vm(0.0, vm, src);
  const auto anchor = datacenter.create_vm(0.675 * 12000.0, 1000.0);
  datacenter.place_vm(0.0, anchor, dst);

  double started = -1.0, completed = -1.0;
  controller.events().on_migration_start = [&](sim::SimTime t, dc::VmId, bool) {
    started = t;
  };
  controller.events().on_migration_complete = [&](sim::SimTime t, dc::VmId, bool) {
    completed = t;
  };
  controller.start();
  simulator.run_until(sim::kHour);
  ASSERT_GE(started, 0.0);
  ASSERT_GE(completed, 0.0);
  // 10 s fixed + 4000 MB / 125 MB/s = 42 s total.
  EXPECT_NEAR(completed - started, 42.0, 1e-6);
}

TEST(TopologyIntegration, MigrationDestinationsStayInRack) {
  // Three racks; the only attractive destination outside the source's
  // rack must never be chosen for a low migration.
  sim::Simulator simulator;
  dc::DataCenter datacenter;
  // rack 0: servers 0, 3; rack 1: 1, 4; rack 2: 2, 5.
  for (int i = 0; i < 6; ++i) datacenter.add_server(6, 2000.0);
  net::TopologyConfig tconfig;
  tconfig.num_racks = 3;
  net::Topology topology(6, tconfig);

  core::EcoCloudParams params;
  params.monitor_period_s = 5.0;
  core::EcoCloudController controller(simulator, datacenter, params,
                                      util::Rng(5));
  controller.set_topology(&topology);
  controller.force_activate(0);  // source, rack 0
  controller.force_activate(3);  // same-rack destination
  controller.force_activate(1);  // other-rack destination (also attractive)

  const auto vm = datacenter.create_vm(1000.0);
  datacenter.place_vm(0.0, vm, 0);
  for (dc::ServerId s : {dc::ServerId{3}, dc::ServerId{1}}) {
    const auto anchor = datacenter.create_vm(0.675 * 12000.0);
    datacenter.place_vm(0.0, anchor, s);
  }
  controller.start();
  simulator.run_until(2.0 * sim::kHour);
  EXPECT_EQ(datacenter.vm(vm).host, 3u) << "migrated out of its rack";
}
