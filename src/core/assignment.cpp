#include "ecocloud/core/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "ecocloud/util/math.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::core {

namespace {

/// What pass 1 of a round leaves for pass 2.
struct Kept {
  std::size_t count = 0;          ///< servers that can answer yes
  std::uint64_t zero_trials = 0;  ///< f_a = 0 trials among the others
};

/// Pass 1 of a round: write to \p kept, in contacted order, every server
/// that can answer yes, and count the others' f_a = 0 trials. It walks
/// past \p walk_past and draws nothing; its body is straight-line code
/// (selects and masks, no early exit). Each predicate is server_accepts's,
/// on the same doubles:
///  * fit (when required): committed + d <= capacity;
///  * in grace: the VM fits under Ta, (committed + d) / capacity <= Ta
///    (an answer, not a trial);
///  * out of grace: u = clamp01(committed / capacity) is not above Ta.
///    A fitting server above Ta is a trial of f_a = 0, which
///    Rng::bernoulli rejects without drawing. The test reads the ratio
///    before the clamp, which decides the same: a ratio below 0 clamps to
///    0 <= Ta, and one above 1 clamps to 1, above Ta unless Ta = 1, where
///    f_a(1) = 0 rejects it without a draw all the same.
Kept keep_possible_volunteers(const dc::ServerSoA& soa,
                              std::span<const dc::ServerId> contacted,
                              dc::ServerId walk_past, sim::SimTime now,
                              double vm_demand_mhz, double ta, bool require_fit,
                              dc::ServerId* kept) {
  const double* demand = soa.demand_mhz.data();
  const double* reserved = soa.reserved_mhz.data();
  const double* capacity = soa.capacity_mhz.data();
  const sim::SimTime* grace_until = soa.grace_until.data();
  Kept out;
  for (const dc::ServerId id : contacted) {
    const double committed = demand[id] + reserved[id];
    const double with_vm = committed + vm_demand_mhz;
    const bool eligible = (id != walk_past) & (!require_fit | !(with_vm > capacity[id]));
    const bool grace = now < grace_until[id];
    // One divide per server: a grace server's ratio counts the VM, an
    // open server's is its decision utilization before the clamp.
    const double ratio = (grace ? with_vm : committed) / capacity[id];
    const bool open = !(ratio > ta);
    kept[out.count] = id;
    out.count += eligible & (grace ? ratio <= ta : open);
    out.zero_trials += eligible & !grace & !open;
  }
  return out;
}

}  // namespace

AssignmentProcedure::AssignmentProcedure(const EcoCloudParams& params, util::Rng& rng)
    : params_(params), rng_(rng), fa_(params.ta, params.p) {
  params.validate();
}

bool AssignmentProcedure::server_accepts(const dc::Server& server, sim::SimTime now,
                                         double vm_demand_mhz, double vm_ram_mb,
                                         const AssignmentFunction& fa) const {
  if (!server.active()) return false;

  const double capacity = server.capacity_mhz();
  const double committed = server.demand_mhz() + server.reserved_mhz();

  // The paper's procedure considers CPU only; RAM-aware volunteering lives
  // in the multires extension (Sec. V), not here.
  (void)vm_ram_mb;
  if (params_.require_fit && committed + vm_demand_mhz > capacity) return false;

  // Post-boot grace: answer positively while the VM still fits under Ta,
  // so freshly woken servers reach critical mass (paper Sec. IV).
  if (server.in_grace(now)) {
    return (committed + vm_demand_mhz) / capacity <= fa.ta();
  }

  const bool accepted = rng_.bernoulli(fa(server.decision_utilization()));
  fa_tally_.record(accepted);
  return accepted;
}

bool AssignmentProcedure::answers(const dc::ServerSoA& soa, dc::ServerId id,
                                  sim::SimTime now, double vm_demand_mhz,
                                  const AssignmentFunction& fa) const {
  const double capacity = soa.capacity_mhz[id];
  const double committed = soa.demand_mhz[id] + soa.reserved_mhz[id];
  if (params_.require_fit && committed + vm_demand_mhz > capacity) return false;
  if (now < soa.grace_until[id]) {
    return (committed + vm_demand_mhz) / capacity <= fa.ta();
  }
  const double u = util::clamp01(committed / capacity);
  double fa_u = 0.0;
  if (!(u > fa.ta())) {  // f_a = 0 above Ta; the clamp makes u >= 0
    if (memo_u_[id] != u) {
      memo_u_[id] = u;
      memo_u_to_p_[id] = std::pow(u, fa.p());
    }
    fa_u = fa.from_power(u, memo_u_to_p_[id]);
  }
  const bool accepted = rng_.bernoulli(fa_u);
  fa_tally_.record(accepted);
  return accepted;
}

AssignmentResult AssignmentProcedure::invite(const dc::DataCenter& datacenter,
                                             sim::SimTime now, double vm_demand_mhz,
                                             double vm_ram_mb, double ta_override,
                                             dc::ServerId exclude,
                                             const std::vector<dc::ServerId>* subset) const {
  util::ScopedPhase profile(util::Phase::kInviteSampling);
  util::require(vm_demand_mhz >= 0.0, "AssignmentProcedure::invite: negative demand");

  const AssignmentFunction fa =
      ta_override >= 0.0 ? fa_.with_threshold(std::min(ta_override, 1.0)) : fa_;

  // Collect the servers to contact: the given group, or all active ones,
  // optionally thinned to a random invite_group_size-sized subset. A
  // broadcast walks the active index itself, past the excluded server;
  // the other cases build their list in a scratch buffer, rebuilt from
  // empty every round, so reusing its capacity changes allocation only,
  // never values or RNG draws.
  const std::size_t group = params_.invite_group_size;
  std::vector<dc::ServerId>& list = scratch_contacted_;
  list.clear();
  // Partial Fisher-Yates: the first `group` entries of the list become a
  // uniformly random subset.
  const auto thin_list_to_group = [&] {
    if (group == 0 || list.size() <= group) return;
    for (std::size_t i = 0; i < group; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.uniform_int(list.size() - i));
      std::swap(list[i], list[j]);
    }
    list.resize(group);
  };
  std::span<const dc::ServerId> contacted;
  dc::ServerId walk_past = dc::kNoServer;
  std::size_t walked_past = 0;
  if (subset) {
    list.reserve(subset->size());
    for (dc::ServerId id : *subset) {
      if (datacenter.server(id).active() && id != exclude) list.push_back(id);
    }
    thin_list_to_group();
    contacted = list;
  } else {
    // The fast sampler draws from the dense membership set (membership
    // order); the compat sampler walks the sorted active index, the order
    // the old full-fleet scan produced, so downstream RNG draws are
    // unchanged.
    const std::vector<dc::ServerId>& active =
        params_.fast_sampler ? datacenter.state_members(dc::ServerState::kActive)
                             : datacenter.servers_with(dc::ServerState::kActive);
    const bool exclude_active =
        exclude != dc::kNoServer && datacenter.server(exclude).active();
    const std::size_t eligible = active.size() - (exclude_active ? 1 : 0);
    if (group == 0 || eligible <= group) {
      contacted = active;
      walk_past = exclude;
      walked_past = exclude_active ? 1 : 0;
    } else if (params_.fast_sampler) {
      // Floyd's subset sampling: `group` distinct positions out of
      // [0, eligible) in O(group) draws; the dedup scan is linear in the
      // group size (a few tens at most, per paper footnote 1). Draws are
      // remapped around the excluded server's membership slot, covering
      // the active set minus the exclusion without materializing it; when
      // nothing is excluded excl_pos sits past the end and the remap never
      // fires.
      const std::size_t excl_pos =
          exclude_active
              ? static_cast<std::size_t>(datacenter.position_in_state(exclude))
              : active.size();
      std::vector<std::uint32_t>& picked = scratch_positions_;
      picked.clear();
      list.reserve(group);
      for (std::size_t j = eligible - group; j < eligible; ++j) {
        const auto t = static_cast<std::uint32_t>(rng_.uniform_int(j + 1));
        const bool duplicate =
            std::find(picked.begin(), picked.end(), t) != picked.end();
        const std::uint32_t pos = duplicate ? static_cast<std::uint32_t>(j) : t;
        picked.push_back(pos);
        const std::size_t slot = pos + (pos >= excl_pos ? 1 : 0);
        list.push_back(active[slot]);
      }
      contacted = list;
    } else {
      list.reserve(active.size());
      for (dc::ServerId id : active) {
        if (id != exclude) list.push_back(id);
      }
      thin_list_to_group();
      contacted = list;
    }
  }

  AssignmentResult result;
  result.contacted = contacted.size() - walked_past;

  // The paper's procedure considers CPU only (see server_accepts).
  (void)vm_ram_mb;
  const dc::ServerSoA& soa = datacenter.servers_soa();
  if (memo_u_.size() < soa.size()) {
    memo_u_.resize(soa.size(), std::numeric_limits<double>::quiet_NaN());
    memo_u_to_p_.resize(soa.size());
  }

  // Pass 1 keeps only the servers that can answer yes (DESIGN.md §17.1).
  // drop_invitation is sampled once per contacted server, so with that
  // hook pass 2 walks every contacted server instead; drop_reply follows
  // an answer, which only a kept server gives.
  const bool lose_invitations = faults_ && faults_->drop_invitation;
  std::span<const dc::ServerId> answering(contacted);
  if (!lose_invitations) {
    // Grown, never shrunk: pass 1 writes a slot per contacted server.
    if (scratch_kept_.size() < contacted.size()) {
      scratch_kept_.resize(contacted.size());
    }
    const Kept kept = keep_possible_volunteers(soa, contacted, walk_past, now,
                                               vm_demand_mhz, fa.ta(),
                                               params_.require_fit,
                                               scratch_kept_.data());
    fa_tally_.rejects += kept.zero_trials;
    answering = {scratch_kept_.data(), kept.count};
  }

  // Pass 2: the remaining servers answer in contacted order, drawing as
  // server_accepts does. A lossy control plane can drop an invitation (the
  // server never answers) or a volunteer reply (the server answered in
  // vain). Both directions are billed as sent — the message left its
  // sender — but only received replies enter the draw.
  std::uint64_t replies_sent = 0;
  std::uint64_t invitations_lost = 0;
  std::uint64_t replies_lost = 0;
  std::vector<dc::ServerId>& volunteers = scratch_volunteers_;
  volunteers.clear();
  for (const dc::ServerId id : answering) {
    if (id == walk_past) continue;
    if (lose_invitations && faults_->drop_invitation()) {
      ++invitations_lost;
      continue;
    }
    if (answers(soa, id, now, vm_demand_mhz, fa)) {
      ++replies_sent;
      if (faults_ && faults_->drop_reply && faults_->drop_reply()) {
        ++replies_lost;
        continue;
      }
      volunteers.push_back(id);
    }
  }
  result.volunteers = volunteers.size();
  if (!volunteers.empty()) {
    result.server = volunteers[rng_.index(volunteers.size())];
  }
  if (log_) {
    ++log_->invitation_rounds;
    log_->invitations_sent += result.contacted;
    log_->volunteer_replies += replies_sent;
    log_->invitations_lost += invitations_lost;
    log_->replies_lost += replies_lost;
  }
  return result;
}

}  // namespace ecocloud::core
