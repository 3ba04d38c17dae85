// Tests for the decentralized assignment procedure (invitation rounds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ecocloud/core/assignment.hpp"

namespace core = ecocloud::core;
namespace dc = ecocloud::dc;
using ecocloud::util::Rng;

namespace {

struct Fixture {
  dc::DataCenter datacenter;
  core::EcoCloudParams params;
  Rng rng{123};

  Fixture() { params.validate(); }

  dc::ServerId add_active_server(double utilization, unsigned cores = 6) {
    const auto s = datacenter.add_server(cores, 2000.0);
    datacenter.start_booting(0.0, s);
    datacenter.finish_booting(0.0, s);
    if (utilization > 0.0) {
      const auto v = datacenter.create_vm(
          utilization * datacenter.server(s).capacity_mhz());
      datacenter.place_vm(0.0, v, s);
    }
    return s;
  }
};

}  // namespace

TEST(Assignment, NoActiveServersMeansNoVolunteers) {
  Fixture f;
  f.datacenter.add_server(6, 2000.0);  // hibernated
  core::AssignmentProcedure proc(f.params, f.rng);
  const auto result = proc.invite(f.datacenter, 0.0, 100.0);
  EXPECT_FALSE(result.server.has_value());
  EXPECT_EQ(result.contacted, 0u);
}

TEST(Assignment, ServerAtArgmaxAlmostAlwaysVolunteers) {
  Fixture f;
  core::AssignmentProcedure proc(f.params, f.rng);
  const auto s = f.add_active_server(proc.fa().argmax());
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (proc.invite(f.datacenter, 0.0, 10.0).server.has_value()) ++accepted;
  }
  // f_a(argmax) = 1, so only the fit check could refuse (it does not here).
  EXPECT_EQ(accepted, 1000);
  (void)s;
}

TEST(Assignment, EmptyServerNeverVolunteers) {
  Fixture f;
  f.add_active_server(0.0);
  core::AssignmentProcedure proc(f.params, f.rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(proc.invite(f.datacenter, 0.0, 10.0).server.has_value());
  }
}

TEST(Assignment, ServerAboveTaNeverVolunteers) {
  Fixture f;
  f.add_active_server(0.95);
  core::AssignmentProcedure proc(f.params, f.rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(proc.invite(f.datacenter, 0.0, 10.0).server.has_value());
  }
}

TEST(Assignment, AcceptanceFrequencyTracksFa) {
  Fixture f;
  const double u = 0.4;
  f.add_active_server(u);
  core::AssignmentProcedure proc(f.params, f.rng);
  const double expected = proc.fa()(u);
  int accepted = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (proc.invite(f.datacenter, 0.0, 1.0).server.has_value()) ++accepted;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / n, expected, 0.02);
}

TEST(Assignment, FitCheckRejectsOversizedVm) {
  Fixture f;
  f.add_active_server(0.675);  // argmax for Ta=0.9, p=3: fa = 1
  core::AssignmentProcedure proc(f.params, f.rng);
  // Remaining capacity is 0.325 * 12000 = 3900 MHz; a 5000 MHz VM cannot fit.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(proc.invite(f.datacenter, 0.0, 5000.0).server.has_value());
  }
  // With require_fit disabled the same server volunteers.
  Fixture f2;
  f2.params.require_fit = false;
  f2.add_active_server(0.675);
  core::AssignmentProcedure proc2(f2.params, f2.rng);
  EXPECT_TRUE(proc2.invite(f2.datacenter, 0.0, 5000.0).server.has_value());
}

TEST(Assignment, GraceServerAcceptsDeterministically) {
  Fixture f;
  const auto s = f.add_active_server(0.0);  // empty: fa = 0
  f.datacenter.server_mutable(s).set_grace_until(1000.0);
  core::AssignmentProcedure proc(f.params, f.rng);
  // During grace it accepts every VM that keeps it under Ta...
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(proc.invite(f.datacenter, 500.0, 100.0).server.has_value());
  }
  // ...but not one that would push it over Ta.
  EXPECT_FALSE(
      proc.invite(f.datacenter, 500.0, 0.95 * 12000.0).server.has_value());
  // After grace expiry the empty server refuses again.
  EXPECT_FALSE(proc.invite(f.datacenter, 1000.0, 100.0).server.has_value());
}

TEST(Assignment, TaOverrideRestrictsVolunteers) {
  Fixture f;
  f.add_active_server(0.7);
  core::AssignmentProcedure proc(f.params, f.rng);
  // With default Ta = 0.9 the 0.7 server can volunteer.
  int base_accepts = 0;
  for (int i = 0; i < 500; ++i) {
    if (proc.invite(f.datacenter, 0.0, 1.0).server.has_value()) ++base_accepts;
  }
  EXPECT_GT(base_accepts, 0);
  // With Ta' = 0.6 < u it never volunteers (the high-migration variant).
  for (int i = 0; i < 500; ++i) {
    EXPECT_FALSE(proc.invite(f.datacenter, 0.0, 1.0, 0.0, 0.6).server.has_value());
  }
}

TEST(Assignment, ExcludedServerIsNotContacted) {
  Fixture f;
  const auto s = f.add_active_server(0.675);
  core::AssignmentProcedure proc(f.params, f.rng);
  const auto result = proc.invite(f.datacenter, 0.0, 1.0, 0.0, -1.0, s);
  EXPECT_EQ(result.contacted, 0u);
  EXPECT_FALSE(result.server.has_value());
}

TEST(Assignment, PicksUniformlyAmongVolunteers) {
  Fixture f;
  std::vector<dc::ServerId> servers;
  for (int i = 0; i < 4; ++i) servers.push_back(f.add_active_server(0.675));
  core::AssignmentProcedure proc(f.params, f.rng);
  std::vector<int> hits(4, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    const auto result = proc.invite(f.datacenter, 0.0, 1.0);
    ASSERT_TRUE(result.server.has_value());
    ++hits[*result.server];
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / n, 0.25, 0.03);
  }
}

TEST(Assignment, HigherFaServersChosenMoreOften) {
  Fixture f;
  const auto mid = f.add_active_server(0.675);  // fa = 1
  const auto low = f.add_active_server(0.20);   // fa ~ 0.08
  core::AssignmentProcedure proc(f.params, f.rng);
  int mid_hits = 0, low_hits = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto result = proc.invite(f.datacenter, 0.0, 1.0);
    if (result.server == mid) ++mid_hits;
    if (result.server == low) ++low_hits;
  }
  EXPECT_GT(mid_hits, 5 * low_hits);
}

TEST(Assignment, InviteGroupSizeLimitsContacts) {
  Fixture f;
  for (int i = 0; i < 20; ++i) f.add_active_server(0.675);
  f.params.invite_group_size = 5;
  core::AssignmentProcedure proc(f.params, f.rng);
  const auto result = proc.invite(f.datacenter, 0.0, 1.0);
  EXPECT_EQ(result.contacted, 5u);
  EXPECT_LE(result.volunteers, 5u);
  EXPECT_TRUE(result.server.has_value());
}

TEST(Assignment, VolunteerCountReported) {
  Fixture f;
  for (int i = 0; i < 10; ++i) f.add_active_server(0.675);  // all fa = 1
  core::AssignmentProcedure proc(f.params, f.rng);
  const auto result = proc.invite(f.datacenter, 0.0, 1.0);
  EXPECT_EQ(result.volunteers, 10u);
  EXPECT_EQ(result.contacted, 10u);
}

TEST(Assignment, NegativeDemandRejected) {
  Fixture f;
  core::AssignmentProcedure proc(f.params, f.rng);
  EXPECT_THROW(proc.invite(f.datacenter, 0.0, -1.0), std::invalid_argument);
}

// ----------------------------------------------------- lockstep reference

namespace {

/// The invitation round as one loop over server_accepts, written out as
/// invite() ran it before the round was split into an RNG-free filter pass
/// and a draw pass with a per-server u^p memo. Draws from \p rng, which
/// must be the generator \p ref was built on.
core::AssignmentResult reference_round(const core::AssignmentProcedure& ref,
                                       const core::EcoCloudParams& params, Rng& rng,
                                       const core::FaultHooks& faults,
                                       core::MessageLog& log,
                                       const dc::DataCenter& datacenter, double now,
                                       double demand, double ta_override,
                                       dc::ServerId exclude,
                                       const std::vector<dc::ServerId>* subset) {
  const core::AssignmentFunction fa =
      ta_override >= 0.0 ? ref.fa().with_threshold(std::min(ta_override, 1.0))
                         : ref.fa();
  const std::size_t group = params.invite_group_size;
  std::vector<dc::ServerId> contacted;
  bool already_sampled = false;
  if (subset) {
    for (dc::ServerId id : *subset) {
      if (datacenter.server(id).active() && id != exclude) contacted.push_back(id);
    }
  } else if (params.fast_sampler) {
    const auto& active = datacenter.state_members(dc::ServerState::kActive);
    const bool exclude_active =
        exclude != dc::kNoServer && datacenter.server(exclude).active();
    const std::size_t excl_pos =
        exclude_active ? datacenter.position_in_state(exclude) : active.size();
    const std::size_t eligible = active.size() - (exclude_active ? 1 : 0);
    if (group == 0 || eligible <= group) {
      for (dc::ServerId id : active) {
        if (id != exclude) contacted.push_back(id);
      }
    } else {
      std::vector<std::uint32_t> picked;
      for (std::size_t j = eligible - group; j < eligible; ++j) {
        const auto t = static_cast<std::uint32_t>(rng.uniform_int(j + 1));
        const bool duplicate = std::find(picked.begin(), picked.end(), t) != picked.end();
        const std::uint32_t pos = duplicate ? static_cast<std::uint32_t>(j) : t;
        picked.push_back(pos);
        contacted.push_back(active[pos + (pos >= excl_pos ? 1 : 0)]);
      }
    }
    already_sampled = true;
  } else {
    for (dc::ServerId id : datacenter.servers_with(dc::ServerState::kActive)) {
      if (id != exclude) contacted.push_back(id);
    }
  }
  if (!already_sampled && group > 0 && contacted.size() > group) {
    for (std::size_t i = 0; i < group; ++i) {
      const std::size_t j = i + rng.uniform_int(contacted.size() - i);
      std::swap(contacted[i], contacted[j]);
    }
    contacted.resize(group);
  }

  core::AssignmentResult result;
  result.contacted = contacted.size();
  std::vector<dc::ServerId> volunteers;
  ++log.invitation_rounds;
  log.invitations_sent += contacted.size();
  for (dc::ServerId id : contacted) {
    if (faults.drop_invitation && faults.drop_invitation()) {
      ++log.invitations_lost;
      continue;
    }
    if (ref.server_accepts(datacenter.server(id), now, demand, 0.0, fa)) {
      ++log.volunteer_replies;
      if (faults.drop_reply && faults.drop_reply()) {
        ++log.replies_lost;
        continue;
      }
      volunteers.push_back(id);
    }
  }
  result.volunteers = volunteers.size();
  if (!volunteers.empty()) result.server = volunteers[rng.index(volunteers.size())];
  return result;
}

/// A random fleet that reaches every branch of a server's answer: hibernated
/// and booting servers, empty ones (f_a = 0), servers at f_a's argmax
/// (f_a >= 1 for some), above Ta and overloaded ones, reservations, and
/// grace windows that are open, expired or absent.
struct LockstepFleet {
  dc::DataCenter datacenter;
  std::vector<dc::VmId> vms;
  double now = 1000.0;

  LockstepFleet(Rng& rng, const core::AssignmentFunction& fa) {
    const std::size_t n = 1 + rng.uniform_int(60);
    for (std::size_t i = 0; i < n; ++i) {
      const auto cores = static_cast<unsigned>(2 + 2 * rng.uniform_int(4));
      const auto s = datacenter.add_server(cores, 2000.0);
      const double state = rng.uniform();
      if (state < 0.15) continue;  // hibernated
      datacenter.start_booting(0.0, s);
      if (state < 0.25) continue;  // booting
      datacenter.finish_booting(0.0, s);
      const double capacity = datacenter.server(s).capacity_mhz();
      const double kind = rng.uniform();
      double u = rng.uniform();
      if (kind < 0.1) u = 0.0;
      else if (kind < 0.25) u = fa.argmax();
      else if (kind < 0.4) u = rng.uniform(0.9, 1.3);
      if (u > 0.0) {
        // Two VMs, so demand updates can move one of them.
        const double first = rng.uniform() * u * capacity;
        for (const double demand : {first, u * capacity - first}) {
          const auto v = datacenter.create_vm(demand);
          datacenter.place_vm(0.0, v, s);
          vms.push_back(v);
        }
      }
      if (rng.uniform() < 0.2) {
        datacenter.server_mutable(s).add_reservation(rng.uniform(0.0, 0.3) * capacity);
      }
      const double grace = rng.uniform();
      if (grace < 0.15) datacenter.server_mutable(s).set_grace_until(now + 100.0);
      else if (grace < 0.25) datacenter.server_mutable(s).set_grace_until(now);
    }
  }

  /// Move some VMs' demands, keeping others (and so their u) unchanged.
  void change_demands(Rng& rng) {
    for (const dc::VmId v : vms) {
      if (rng.uniform() < 0.4) datacenter.set_vm_demand(now, v, rng.uniform(0.0, 4000.0));
    }
  }
};

void expect_same_state(const Rng& a, const Rng& b) {
  const Rng::State sa = a.state();
  const Rng::State sb = b.state();
  EXPECT_EQ(sa.s, sb.s);
  EXPECT_EQ(sa.has_cached_normal, sb.has_cached_normal);
  EXPECT_EQ(sa.cached_normal, sb.cached_normal);
}

void expect_same_log(const core::MessageLog& a, const core::MessageLog& b) {
  EXPECT_EQ(a.invitation_rounds, b.invitation_rounds);
  EXPECT_EQ(a.invitations_sent, b.invitations_sent);
  EXPECT_EQ(a.volunteer_replies, b.volunteer_replies);
  EXPECT_EQ(a.invitations_lost, b.invitations_lost);
  EXPECT_EQ(a.replies_lost, b.replies_lost);
}

}  // namespace

TEST(AssignmentLockstep, InviteMatchesTheServerAcceptsLoopDrawForDraw) {
  // invite() against the loop over server_accepts, from the same RNG state,
  // on randomized fleets and round shapes: both samplers, group sizes,
  // subsets, exclusions, Ta overrides (some clamped to 1), require_fit on
  // and off, and lossy hooks that draw from the procedure's own generator,
  // so any change in the interleaving of drops and trials would show. Each
  // case runs a cold round, a warm-memo round and a round after demands
  // moved under the warm memo.
  Rng cases(424242);
  std::size_t rounds_with_volunteers = 0;
  std::size_t rounds_with_losses = 0;
  for (int c = 0; c < 400; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    core::EcoCloudParams params;
    params.fast_sampler = cases.uniform() < 0.5;
    params.require_fit = cases.uniform() < 0.7;
    const std::size_t groups[] = {0, 0, 1, 3, 8, 1000};
    params.invite_group_size = groups[cases.uniform_int(6)];
    params.validate();
    const core::AssignmentFunction fa(params.ta, params.p);
    LockstepFleet fleet(cases, fa);

    const std::uint64_t seed = cases();
    Rng test_rng(seed);
    Rng ref_rng(seed);
    core::AssignmentProcedure proc(params, test_rng);
    core::AssignmentProcedure ref(params, ref_rng);
    core::MessageLog test_log;
    core::MessageLog ref_log;
    proc.set_message_log(&test_log);

    const std::uint64_t hooks = cases.uniform_int(4);  // none, invitation, reply, both
    const double loss = cases.uniform(0.05, 0.5);
    const auto make_hooks = [&](Rng& rng) {
      core::FaultHooks h;
      if (hooks & 1u) h.drop_invitation = [&rng, loss] { return rng.bernoulli(loss); };
      if (hooks & 2u) h.drop_reply = [&rng, loss] { return rng.bernoulli(loss); };
      return h;
    };
    const core::FaultHooks test_hooks = make_hooks(test_rng);
    const core::FaultHooks ref_hooks = make_hooks(ref_rng);
    proc.set_fault_hooks(&test_hooks);

    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      if (round == 2) fleet.change_demands(cases);
      // 3600 MHz puts an empty 4,000 MHz server exactly at Ta = 0.9.
      const double pick = cases.uniform();
      const double demand =
          pick < 0.1 ? 0.0 : (pick < 0.2 ? 3600.0 : cases.uniform(0.0, 3000.0));
      const double ta_override = cases.uniform() < 0.5 ? -1.0 : cases.uniform(0.05, 1.3);
      const std::size_t n = fleet.datacenter.num_servers();
      const dc::ServerId exclude =
          cases.uniform() < 0.5 ? dc::kNoServer
                                : static_cast<dc::ServerId>(cases.uniform_int(n));
      std::vector<dc::ServerId> subset;
      for (dc::ServerId id = 0; id < n; ++id) {
        if (cases.uniform() < 0.5) subset.push_back(id);
      }
      const std::vector<dc::ServerId>* subset_arg =
          cases.uniform() < 0.3 ? &subset : nullptr;

      const core::AssignmentResult got =
          proc.invite(fleet.datacenter, fleet.now, demand, 0.0, ta_override, exclude,
                      subset_arg);
      const core::AssignmentResult want =
          reference_round(ref, params, ref_rng, ref_hooks, ref_log, fleet.datacenter,
                          fleet.now, demand, ta_override, exclude, subset_arg);
      EXPECT_EQ(got.server, want.server);
      EXPECT_EQ(got.volunteers, want.volunteers);
      EXPECT_EQ(got.contacted, want.contacted);
      expect_same_state(test_rng, ref_rng);
      EXPECT_EQ(proc.fa_tally().accepts, ref.fa_tally().accepts);
      EXPECT_EQ(proc.fa_tally().rejects, ref.fa_tally().rejects);
      expect_same_log(test_log, ref_log);
      if (want.volunteers > 0) ++rounds_with_volunteers;
      if (ref_log.invitations_lost + ref_log.replies_lost > 0) ++rounds_with_losses;
    }
  }
  // The cases reach both outcomes and the lossy paths.
  EXPECT_GT(rounds_with_volunteers, 100u);
  EXPECT_GT(rounds_with_losses, 50u);
}
