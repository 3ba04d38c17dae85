// Tests for the event-driven ecoCloud controller: deployment, wake-up and
// boot queues, migration execution, hibernation, departures.

#include <gtest/gtest.h>

#include "ecocloud/core/controller.hpp"

namespace core = ecocloud::core;
namespace dc = ecocloud::dc;
namespace sim = ecocloud::sim;
using ecocloud::util::Rng;

namespace {

struct Fixture {
  sim::Simulator simulator;
  dc::DataCenter datacenter;
  core::EcoCloudParams params;
  std::unique_ptr<core::EcoCloudController> controller;

  void build(std::uint64_t seed = 9) {
    controller = std::make_unique<core::EcoCloudController>(simulator, datacenter,
                                                            params, Rng(seed));
  }

  dc::ServerId add_server(unsigned cores = 6) {
    return datacenter.add_server(cores, 2000.0);
  }
};

}  // namespace

TEST(Controller, DeployPlacesOnVolunteeringServer) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  f.controller->force_activate(s);
  const auto seed_vm = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, seed_vm, s);  // fa(0.675) = 1

  const auto vm = f.datacenter.create_vm(100.0);
  EXPECT_TRUE(f.controller->deploy_vm(vm));
  EXPECT_EQ(f.datacenter.vm(vm).host, s);
}

TEST(Controller, DeployWakesServerWhenNobodyVolunteers) {
  Fixture f;
  f.add_server();
  f.build();
  const auto vm = f.datacenter.create_vm(100.0);
  EXPECT_TRUE(f.controller->deploy_vm(vm));  // queued on the waking server
  EXPECT_EQ(f.datacenter.booting_server_count(), 1u);
  EXPECT_FALSE(f.datacenter.vm(vm).placed());
  f.simulator.run_until(f.params.boot_time_s + 1.0);
  EXPECT_EQ(f.datacenter.active_server_count(), 1u);
  EXPECT_TRUE(f.datacenter.vm(vm).placed());
  EXPECT_EQ(f.controller->wake_ups(), 1u);
}

TEST(Controller, WokenServerGetsGracePeriod) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  const auto vm = f.datacenter.create_vm(100.0);
  f.controller->deploy_vm(vm);
  f.simulator.run_until(f.params.boot_time_s + 1.0);
  EXPECT_TRUE(f.datacenter.server(s).in_grace(f.simulator.now()));
  EXPECT_NEAR(f.datacenter.server(s).grace_until(),
              f.params.boot_time_s + f.params.grace_period_s, 1e-9);
}

TEST(Controller, MultipleVmsShareOneBootingServer) {
  Fixture f;
  f.add_server(8);  // 16000 MHz capacity
  f.add_server(8);
  f.build();
  std::vector<dc::VmId> vms;
  for (int i = 0; i < 10; ++i) {
    vms.push_back(f.datacenter.create_vm(1000.0));
    EXPECT_TRUE(f.controller->deploy_vm(vms.back()));
  }
  // 10 * 1000 = 10000 MHz < Ta * 16000 = 14400: one boot suffices.
  EXPECT_EQ(f.controller->wake_ups(), 1u);
  f.simulator.run_until(f.params.boot_time_s + 1.0);
  for (auto vm : vms) {
    EXPECT_TRUE(f.datacenter.vm(vm).placed());
  }
}

TEST(Controller, QueueOverflowWakesSecondServer) {
  Fixture f;
  f.add_server(4);  // 8000 MHz, Ta cap 7200
  f.add_server(4);
  f.build();
  for (int i = 0; i < 4; ++i) {
    const auto vm = f.datacenter.create_vm(2000.0);
    EXPECT_TRUE(f.controller->deploy_vm(vm));
  }
  // 4 * 2000 = 8000 > 7200: needs a second server.
  EXPECT_EQ(f.controller->wake_ups(), 2u);
}

TEST(Controller, DeployFailsWhenSaturated) {
  Fixture f;
  f.add_server(4);
  f.build();
  // Fill the only server's boot queue beyond Ta, then exhaust sleepers.
  for (int i = 0; i < 3; ++i) {
    const auto vm = f.datacenter.create_vm(2400.0);
    EXPECT_TRUE(f.controller->deploy_vm(vm));
  }
  const auto overflow = f.datacenter.create_vm(2400.0);
  EXPECT_FALSE(f.controller->deploy_vm(overflow));
  EXPECT_EQ(f.controller->assignment_failures(), 1u);
}

TEST(Controller, AssignmentFailureEventFires) {
  Fixture f;
  f.build();
  bool fired = false;
  f.controller->events().on_assignment_failure = [&](sim::SimTime, dc::VmId) {
    fired = true;
  };
  const auto vm = f.datacenter.create_vm(100.0);
  EXPECT_FALSE(f.controller->deploy_vm(vm));  // zero servers at all
  EXPECT_TRUE(fired);
}

TEST(Controller, AssignmentEventReportsPlacement) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  f.controller->force_activate(s);
  const auto seed_vm = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, seed_vm, s);
  dc::ServerId reported = dc::kNoServer;
  f.controller->events().on_assignment = [&](sim::SimTime, dc::VmId, dc::ServerId sid) {
    reported = sid;
  };
  const auto vm = f.datacenter.create_vm(50.0);
  f.controller->deploy_vm(vm);
  EXPECT_EQ(reported, s);
}

TEST(Controller, DepartedQueuedVmIsNotPlaced) {
  Fixture f;
  f.add_server();
  f.build();
  const auto vm = f.datacenter.create_vm(100.0);
  f.controller->deploy_vm(vm);  // queued on booting server
  f.controller->depart_vm(vm);
  f.simulator.run_until(f.params.boot_time_s + 1.0);
  EXPECT_FALSE(f.datacenter.vm(vm).placed());
  EXPECT_EQ(f.datacenter.placed_vm_count(), 0u);
}

TEST(Controller, DepartPlacedVmTriggersHibernation) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  f.controller->force_activate(s);
  const auto vm = f.datacenter.create_vm(100.0);
  f.datacenter.place_vm(0.0, vm, s);
  std::size_t hibernated = 0;
  f.controller->events().on_hibernation = [&](sim::SimTime, dc::ServerId) {
    ++hibernated;
  };
  f.controller->depart_vm(vm);
  f.simulator.run_until(f.params.hibernate_delay_s + 1.0);
  EXPECT_TRUE(f.datacenter.server(s).hibernated());
  EXPECT_EQ(hibernated, 1u);
}

TEST(Controller, HibernationSkippedIfServerRefilled) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  f.controller->force_activate(s);
  const auto vm = f.datacenter.create_vm(100.0);
  f.datacenter.place_vm(0.0, vm, s);
  f.controller->depart_vm(vm);
  // Refill before the hibernate delay expires.
  const auto vm2 = f.datacenter.create_vm(100.0);
  f.simulator.schedule_at(f.params.hibernate_delay_s / 2.0,
                          [&] { f.datacenter.place_vm(f.simulator.now(), vm2, s); });
  f.simulator.run_until(f.params.hibernate_delay_s * 2.0);
  EXPECT_TRUE(f.datacenter.server(s).active());
}

TEST(Controller, LowMigrationDrainsAndHibernatesSource) {
  Fixture f;
  const auto source = f.add_server();
  const auto dest = f.add_server();
  f.params.monitor_period_s = 5.0;
  f.params.migration_cooldown_s = 10.0;
  f.build();
  f.controller->force_activate(source);
  f.controller->force_activate(dest);
  // Source holds one small VM (u ~ 0.08 < Tl); dest is a perfect acceptor.
  const auto small = f.datacenter.create_vm(1000.0);
  f.datacenter.place_vm(0.0, small, source);
  const auto anchor = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, anchor, dest);
  std::size_t low = 0;
  f.controller->events().on_migration_complete = [&](sim::SimTime, dc::VmId,
                                                     bool is_high) {
    if (!is_high) ++low;
  };
  f.controller->start();
  f.simulator.run_until(2.0 * sim::kHour);
  EXPECT_EQ(low, 1u);
  EXPECT_EQ(f.datacenter.vm(small).host, dest);
  EXPECT_TRUE(f.datacenter.server(source).hibernated());
  EXPECT_EQ(f.controller->low_migrations(), 1u);
}

TEST(Controller, HighMigrationRelievesOverload) {
  Fixture f;
  const auto hot = f.add_server();
  const auto cool = f.add_server();
  f.params.monitor_period_s = 5.0;
  f.build();
  f.controller->force_activate(hot);
  f.controller->force_activate(cool);
  // Hot server at u = 0.99; cool at 0.5 (below 0.9 * 0.99 = 0.891).
  for (int i = 0; i < 11; ++i) {
    const auto vm = f.datacenter.create_vm(1080.0);
    f.datacenter.place_vm(0.0, vm, hot);
  }
  const auto anchor = f.datacenter.create_vm(0.5 * 12000.0);
  f.datacenter.place_vm(0.0, anchor, cool);
  f.controller->start();
  f.simulator.run_until(0.5 * sim::kHour);
  EXPECT_GT(f.controller->high_migrations(), 0u);
  EXPECT_LE(f.datacenter.server(hot).utilization(), 0.96);
}

TEST(Controller, HighMigrationWakesWhenNoVolunteer) {
  Fixture f;
  const auto hot = f.add_server();
  f.add_server();  // sleeper
  f.params.monitor_period_s = 5.0;
  f.build();
  f.controller->force_activate(hot);
  for (int i = 0; i < 12; ++i) {
    const auto vm = f.datacenter.create_vm(1000.0);
    f.datacenter.place_vm(0.0, vm, hot);
  }
  ASSERT_DOUBLE_EQ(f.datacenter.server(hot).utilization(), 1.0);
  f.controller->start();
  f.simulator.run_until(0.5 * sim::kHour);
  EXPECT_GE(f.controller->wake_ups(), 1u);
  EXPECT_GT(f.controller->high_migrations(), 0u);
  EXPECT_LT(f.datacenter.server(hot).utilization(), 1.0);
}

TEST(Controller, MigrationsDisabledMeansNoMonitors) {
  Fixture f;
  const auto s = f.add_server();
  f.params.enable_migrations = false;
  f.build();
  f.controller->force_activate(s);
  const auto vm = f.datacenter.create_vm(1000.0);  // u ~ 0.08 < Tl
  f.datacenter.place_vm(0.0, vm, s);
  f.controller->start();
  f.simulator.run_until(1.0 * sim::kHour);
  EXPECT_EQ(f.controller->low_migrations(), 0u);
  EXPECT_EQ(f.datacenter.vm(vm).host, s);
}

TEST(Controller, DepartMidMigrationCancelsCleanly) {
  Fixture f;
  const auto source = f.add_server();
  const auto dest = f.add_server();
  f.params.monitor_period_s = 5.0;
  f.params.migration_latency_s = 50.0;
  f.build();
  f.controller->force_activate(source);
  f.controller->force_activate(dest);
  const auto small = f.datacenter.create_vm(1000.0);
  f.datacenter.place_vm(0.0, small, source);
  const auto anchor = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, anchor, dest);
  f.controller->start();
  // Run until the migration starts, then depart the VM mid-flight.
  while (f.simulator.now() < sim::kHour && !f.datacenter.vm(small).migrating()) {
    f.simulator.step();
  }
  ASSERT_TRUE(f.datacenter.vm(small).migrating());
  f.controller->depart_vm(small);
  f.simulator.run_until(f.simulator.now() + 2.0 * sim::kHour);
  EXPECT_FALSE(f.datacenter.vm(small).placed());
  EXPECT_DOUBLE_EQ(f.datacenter.server(dest).reserved_mhz(), 0.0);
  EXPECT_EQ(f.controller->low_migrations(), 0u);  // never completed
  EXPECT_TRUE(f.datacenter.server(source).hibernated());
}

TEST(Controller, CountersReset) {
  Fixture f;
  f.build();
  const auto vm = f.datacenter.create_vm(100.0);
  f.controller->deploy_vm(vm);  // fails: no servers
  EXPECT_EQ(f.controller->assignment_failures(), 1u);
  f.controller->reset_counters();
  EXPECT_EQ(f.controller->assignment_failures(), 0u);
  EXPECT_EQ(f.controller->wake_ups(), 0u);
}

TEST(Controller, StartTwiceThrows) {
  Fixture f;
  f.add_server();
  f.build();
  f.controller->start();
  EXPECT_THROW(f.controller->start(), std::logic_error);
}

TEST(Controller, BootingServerReusedForHighMigrationWakes) {
  // Two overloaded servers shed at nearly the same time with one sleeper:
  // the second shedding must reuse the already-booting server instead of
  // failing or double-waking.
  Fixture f;
  const auto hot1 = f.add_server();
  const auto hot2 = f.add_server();
  f.add_server();  // single sleeper
  f.params.monitor_period_s = 5.0;
  f.build();
  f.controller->force_activate(hot1);
  f.controller->force_activate(hot2);
  for (auto hot : {hot1, hot2}) {
    for (int i = 0; i < 12; ++i) {
      const auto vm = f.datacenter.create_vm(1000.0);
      f.datacenter.place_vm(0.0, vm, hot);
    }
  }
  f.controller->start();
  f.simulator.run_until(sim::kHour);
  EXPECT_EQ(f.controller->wake_ups(), 1u);  // one sleeper, woken once
  EXPECT_GT(f.controller->high_migrations(), 1u);
  EXPECT_LT(f.datacenter.server(hot1).utilization(), 1.0);
  EXPECT_LT(f.datacenter.server(hot2).utilization(), 1.0);
}

TEST(Controller, MessageLogCountsDeployTraffic) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  f.controller->force_activate(s);
  const auto anchor = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, anchor, s);
  const auto vm = f.datacenter.create_vm(10.0);
  f.controller->deploy_vm(vm);
  const auto& messages = f.controller->messages();
  EXPECT_EQ(messages.invitation_rounds, 1u);
  EXPECT_EQ(messages.invitations_sent, 1u);
  EXPECT_EQ(messages.volunteer_replies, 1u);  // fa(argmax) = 1
  EXPECT_EQ(messages.placement_commands, 1u);
}

// --- Failure and recovery paths ---------------------------------------------

TEST(Controller, BootingServerFailureOrphansQueueButNotDepartedVms) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  const auto gone = f.datacenter.create_vm(100.0);
  const auto stays = f.datacenter.create_vm(100.0);
  f.controller->deploy_vm(gone);   // wakes the server, queues on it
  f.controller->deploy_vm(stays);  // joins the same boot queue
  f.controller->depart_vm(gone);   // leaves while the server still boots

  const auto orphans = f.controller->fail_server(s);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], stays);
  EXPECT_TRUE(f.datacenter.server(s).failed());
  // The cancelled boot event must not activate the dead server later.
  f.simulator.run_until(f.params.boot_time_s + 1.0);
  EXPECT_TRUE(f.datacenter.server(s).failed());
  EXPECT_EQ(f.datacenter.total_activations(), 0u);
  // Redeploying the orphan wakes a fresh machine once one exists.
  const auto spare = f.add_server();
  EXPECT_TRUE(f.controller->deploy_vm(stays));
  f.simulator.run_until(f.simulator.now() + f.params.boot_time_s + 1.0);
  EXPECT_EQ(f.datacenter.vm(stays).host, spare);
}

TEST(Controller, DestinationCrashMidFlightRollsBackMigration) {
  Fixture f;
  const auto source = f.add_server();
  const auto dest = f.add_server();
  f.params.monitor_period_s = 5.0;
  f.params.migration_latency_s = 50.0;
  f.build();
  f.controller->force_activate(source);
  f.controller->force_activate(dest);
  const auto small = f.datacenter.create_vm(1000.0);
  f.datacenter.place_vm(0.0, small, source);
  const auto anchor = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, anchor, dest);
  std::size_t aborted_events = 0;
  f.controller->events().on_migration_aborted =
      [&](sim::SimTime, dc::VmId, bool) { ++aborted_events; };
  f.controller->start();
  while (f.simulator.now() < sim::kHour && !f.datacenter.vm(small).migrating()) {
    f.simulator.step();
  }
  ASSERT_TRUE(f.datacenter.vm(small).migrating());
  ASSERT_GT(f.datacenter.server(dest).reserved_mhz(), 0.0);

  const auto orphans = f.controller->fail_server(dest);
  // The in-flight VM stays on its source; only the anchor is orphaned.
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], anchor);
  EXPECT_FALSE(f.datacenter.vm(small).migrating());
  EXPECT_EQ(f.datacenter.vm(small).host, source);
  EXPECT_DOUBLE_EQ(f.datacenter.server(dest).reserved_mhz(), 0.0);
  EXPECT_EQ(f.controller->interrupted_migrations(), 1u);
  EXPECT_EQ(f.controller->low_migrations(), 0u);
  EXPECT_EQ(aborted_events, 1u);
  // The stale completion event must not land the rolled-back migration.
  f.simulator.run_until(f.simulator.now() + 2.0 * sim::kHour);
  EXPECT_EQ(f.datacenter.vm(small).host, source);
  EXPECT_EQ(f.controller->low_migrations(), 0u);
}

TEST(Controller, SourceCrashMidFlightOrphansMigratingVm) {
  Fixture f;
  const auto source = f.add_server();
  const auto dest = f.add_server();
  f.params.monitor_period_s = 5.0;
  f.params.migration_latency_s = 50.0;
  f.build();
  f.controller->force_activate(source);
  f.controller->force_activate(dest);
  const auto small = f.datacenter.create_vm(1000.0);
  f.datacenter.place_vm(0.0, small, source);
  const auto anchor = f.datacenter.create_vm(0.675 * 12000.0);
  f.datacenter.place_vm(0.0, anchor, dest);
  f.controller->start();
  while (f.simulator.now() < sim::kHour && !f.datacenter.vm(small).migrating()) {
    f.simulator.step();
  }
  ASSERT_TRUE(f.datacenter.vm(small).migrating());

  const auto orphans = f.controller->fail_server(source);
  // The migration dies with its source: the VM is rolled back onto the
  // crashing host first, then orphaned with it.
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], small);
  EXPECT_FALSE(f.datacenter.vm(small).placed());
  EXPECT_DOUBLE_EQ(f.datacenter.server(dest).reserved_mhz(), 0.0);
  EXPECT_EQ(f.controller->interrupted_migrations(), 1u);
  // Recovery: the orphan redeploys onto the surviving destination.
  EXPECT_TRUE(f.controller->deploy_vm(small));
  EXPECT_EQ(f.datacenter.vm(small).host, dest);
  // Repair returns the crashed server to the hibernated pool.
  f.controller->repair_server(source);
  EXPECT_TRUE(f.datacenter.server(source).hibernated());
}

TEST(Controller, OrphanHandlerReceivesCrashVictims) {
  Fixture f;
  const auto s = f.add_server();
  f.build();
  f.controller->force_activate(s);
  const auto a = f.datacenter.create_vm(500.0);
  const auto b = f.datacenter.create_vm(600.0);
  f.datacenter.place_vm(0.0, a, s);
  f.datacenter.place_vm(0.0, b, s);
  std::vector<dc::VmId> handed;
  f.controller->set_orphan_handler([&](dc::VmId vm) { handed.push_back(vm); });
  const auto orphans = f.controller->fail_server(s);
  EXPECT_EQ(handed, orphans);
  EXPECT_EQ(handed.size(), 2u);
  EXPECT_EQ(f.datacenter.placed_vm_count(), 0u);
}

TEST(Controller, BootQueueCountsInboundMigrationReservations) {
  // Regression: the deploy path's boot-queue check used to ignore capacity
  // reserved for in-flight migrations, so a queued deployment racing a
  // migration to the same booting target could over-commit it past Ta (and
  // even past physical capacity). The check is booting_with_room's:
  // queued + reserved + new demand.
  Fixture f;
  const auto s0 = f.datacenter.add_server(1, 2000.0);
  f.datacenter.add_server(1, 2000.0);
  f.datacenter.add_server(1, 2000.0);
  f.build();
  f.controller->force_activate(s0);
  // s0 is too full to volunteer for anything below.
  const auto anchor = f.datacenter.create_vm(1800.0);
  f.datacenter.place_vm(0.0, anchor, s0);

  // First deployment finds no volunteer and wakes a server W, queue = 400.
  const auto vm1 = f.datacenter.create_vm(400.0);
  ASSERT_TRUE(f.controller->deploy_vm(vm1));
  ASSERT_EQ(f.controller->wake_ups(), 1u);
  const auto booting = f.datacenter.servers_with(dc::ServerState::kBooting);
  ASSERT_EQ(booting.size(), 1u);
  const auto w = booting.front();

  // A migration toward W reserves 800 MHz while it boots.
  const auto mover = f.datacenter.create_vm(800.0);
  f.datacenter.place_vm(0.0, mover, s0);
  f.datacenter.begin_migration(0.0, mover, w);
  ASSERT_DOUBLE_EQ(f.datacenter.server(w).reserved_mhz(), 800.0);

  // 400 queued + 800 reserved + 900 new = 2100 MHz > Ta * 2000: W must
  // refuse, and the deployment wakes the last sleeper instead. The buggy
  // check saw only (400 + 900) / 2000 = 0.65 and over-committed W.
  const auto vm2 = f.datacenter.create_vm(900.0);
  ASSERT_TRUE(f.controller->deploy_vm(vm2));
  EXPECT_EQ(f.controller->wake_ups(), 2u);

  // After the boots land and the migration drains s0's overload, no server
  // holds commitments past capacity.
  f.simulator.run_until(f.params.boot_time_s + 1.0);
  EXPECT_NE(f.datacenter.vm(vm2).host, w);
  f.datacenter.complete_migration(f.simulator.now(), mover);
  for (const dc::Server& server : f.datacenter.servers()) {
    EXPECT_LE(server.demand_mhz() + server.reserved_mhz(),
              server.capacity_mhz() + 1e-9)
        << "server " << server.id();
  }
}

TEST(Controller, RecheckShedsMultipleVmsInOneMonitorTick) {
  // Footnote-3 regression for the iterative execute_plan loop: when every
  // hosted VM's share is below share_needed, plan_high falls back to the
  // largest VM and suggests a recheck, and the chain must keep shedding
  // within the SAME monitor tick until the trial stops firing. A server
  // clamped at u = 1.0 fires with certainty (f_h(1.0) = 1), so the number
  // of same-instant migration starts is deterministic.
  Fixture f;
  const auto hot = f.add_server();  // 6 cores = 12000 MHz
  f.add_server();                   // sleepers: the wake path absorbs the
  f.add_server();                   // shed VMs without any volunteer draw
  f.params.monitor_period_s = 5.0;
  // The firing trial sets the cooldown BEFORE execute_plan runs, and the
  // recheck's MigrationProcedure::check reads it — with the default 60 s
  // cooldown the chain stops after one migration by design. Zeroing it
  // isolates the recheck loop itself.
  f.params.migration_cooldown_s = 0.0;
  f.build();
  f.controller->force_activate(hot);

  // 30 x 500 MHz on 12000 MHz: demand 15000, u clamps to 1.0. Each share
  // is 500/12000 ~ 0.042 < share_needed = 1 - Th = 0.05, so every round
  // takes the footnote-3 path. u stays >= 1.0 (certain fire) until six
  // migrations are in flight: at least seven same-tick starts.
  for (int i = 0; i < 30; ++i) {
    const auto vm = f.datacenter.create_vm(500.0);
    f.datacenter.place_vm(0.0, vm, hot);
  }
  ASSERT_DOUBLE_EQ(f.datacenter.server(hot).utilization(), 1.0);

  std::vector<sim::SimTime> starts;
  f.controller->events().on_migration_start =
      [&](sim::SimTime t, dc::VmId, bool is_high) {
        EXPECT_TRUE(is_high);
        starts.push_back(t);
      };
  f.controller->start();
  f.simulator.run_until(60.0);

  ASSERT_FALSE(starts.empty());
  std::size_t best = 0;
  for (std::size_t i = 0; i < starts.size();) {
    std::size_t j = i;
    while (j < starts.size() && starts[j] == starts[i]) ++j;
    best = std::max(best, j - i);
    i = j;
  }
  EXPECT_GE(best, 7u);
  EXPECT_GE(f.controller->wake_ups(), 1u);
}
