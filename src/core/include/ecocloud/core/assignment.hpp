#pragma once

/// \file assignment.hpp
/// \brief The decentralized assignment procedure (paper Sec. II).
///
/// The data-center manager broadcasts an invitation carrying the VM's
/// resource demand; each *active* server answers with an independent
/// Bernoulli trial whose success probability is f_a evaluated on its local
/// utilization. The manager then picks uniformly among the volunteers.
/// No global optimization happens anywhere — that is the point.

#include <optional>
#include <vector>

#include "ecocloud/core/fault_hooks.hpp"
#include "ecocloud/core/message_log.hpp"
#include "ecocloud/core/params.hpp"
#include "ecocloud/core/probability.hpp"
#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::core {

/// Outcome of one invitation round.
struct AssignmentResult {
  /// Chosen server, or empty when every contacted server declined.
  std::optional<dc::ServerId> server;

  /// Number of servers that volunteered.
  std::size_t volunteers = 0;

  /// Number of servers contacted.
  std::size_t contacted = 0;
};

/// Engine for invitation rounds. All behavioral state lives in
/// DataCenter; the procedure keeps only scratch buffers and a per-server
/// memo of u^p, both derivable and never checkpointed.
class AssignmentProcedure {
 public:
  AssignmentProcedure(const EcoCloudParams& params, util::Rng& rng);

  /// Run one invitation round for a VM of the given demand.
  ///
  /// \param now          current simulation time (for grace periods).
  /// \param ta_override  replaces Ta in f_a when >= 0 (the high-migration
  ///                     destination variant uses Ta' = 0.9 * u_source).
  /// \param exclude      a server that must not volunteer (migration source).
  /// \param subset       when non-null, only these servers are contacted
  ///                     (footnote 1's group broadcast; inactive entries
  ///                     are skipped).
  AssignmentResult invite(const dc::DataCenter& datacenter, sim::SimTime now,
                          double vm_demand_mhz, double vm_ram_mb = 0.0,
                          double ta_override = -1.0,
                          dc::ServerId exclude = dc::kNoServer,
                          const std::vector<dc::ServerId>* subset = nullptr) const;

  /// One server's answer to an invitation, computed without the memo:
  /// the reference that invite()'s two passes must reproduce draw for
  /// draw (tests/assignment_test.cpp runs them in lockstep).
  [[nodiscard]] bool server_accepts(const dc::Server& server, sim::SimTime now,
                                    double vm_demand_mhz, double vm_ram_mb,
                                    const AssignmentFunction& fa) const;

  [[nodiscard]] const AssignmentFunction& fa() const { return fa_; }

  /// Accept/reject tally of every f_a Bernoulli trial run so far (grace
  /// accepts are deterministic and excluded).
  [[nodiscard]] const BernoulliTally& fa_tally() const { return fa_tally_; }

  /// Checkpoint restore of the tally (pure accounting, no behavior).
  void restore_fa_tally(const BernoulliTally& tally) { fa_tally_ = tally; }

  /// Attach a control-plane message counter (nullptr to detach). Not
  /// owned; must outlive the procedure while attached.
  void set_message_log(MessageLog* log) { log_ = log; }

  /// Attach fault hooks (nullptr to detach): drop_invitation/drop_reply
  /// make the control plane lossy. Not owned; must outlive the procedure
  /// while attached.
  void set_fault_hooks(const FaultHooks* hooks) { faults_ = hooks; }

 private:
  /// Pass 2's answer of contacted server \p id: server_accepts's
  /// decision, reading the columns directly and u^p from the memo.
  [[nodiscard]] bool answers(const dc::ServerSoA& soa, dc::ServerId id,
                             sim::SimTime now, double vm_demand_mhz,
                             const AssignmentFunction& fa) const;

  const EcoCloudParams& params_;
  util::Rng& rng_;
  AssignmentFunction fa_;
  MessageLog* log_ = nullptr;
  const FaultHooks* faults_ = nullptr;
  /// Mutable because trials happen inside the logically-const invite path,
  /// like the message log; pure accounting, no behavioral state.
  mutable BernoulliTally fa_tally_;
  /// Per-round scratch buffers, rebuilt from empty on every invite() so
  /// the hot path stops allocating once their capacity has grown to the
  /// steady-state round size. Contents never survive a call; mutable for
  /// the same reason as the tally.
  mutable std::vector<dc::ServerId> scratch_contacted_;
  mutable std::vector<dc::ServerId> scratch_kept_;
  mutable std::vector<dc::ServerId> scratch_volunteers_;
  mutable std::vector<std::uint32_t> scratch_positions_;
  /// Per-server memo of std::pow(u, p), keyed on the exact double u it was
  /// computed from (NaN when empty, which no u equals). A server's u rarely
  /// changes between two of its rounds, so most rounds skip the pow. It
  /// is a pure function cache, so it is not checkpointed and is valid for
  /// any fleet; mutable for the same reason as the tally.
  mutable std::vector<double> memo_u_;
  mutable std::vector<double> memo_u_to_p_;
};

}  // namespace ecocloud::core
