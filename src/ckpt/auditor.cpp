#include "ecocloud/ckpt/auditor.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "ecocloud/util/exit_codes.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::ckpt {

AuditAction parse_audit_action(const std::string& text) {
  if (text == "log") return AuditAction::kLog;
  if (text == "abort") return AuditAction::kAbort;
  if (text == "heal") return AuditAction::kHeal;
  throw std::invalid_argument("bad audit action '" + text +
                              "' (want log|abort|heal)");
}

const char* to_string(AuditAction action) {
  switch (action) {
    case AuditAction::kLog:
      return "log";
    case AuditAction::kAbort:
      return "abort";
    case AuditAction::kHeal:
      return "heal";
  }
  return "?";
}

RuntimeAuditor::RuntimeAuditor(sim::Simulator& simulator, dc::DataCenter& datacenter,
                               AuditorConfig config)
    : sim_(simulator), dc_(datacenter), config_(config) {
  util::require(config_.tolerance >= 0.0, "RuntimeAuditor: negative tolerance");
}

void RuntimeAuditor::check_vm_ownership(std::vector<std::string>& failures) const {
  if (controller_ == nullptr) return;
  const auto& queued = controller_->queued_vms();
  const std::size_t n = dc_.num_vms();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<dc::VmId>(i);
    const bool placed = dc_.vm(id).host != dc::kNoServer;
    const bool boot_queued = queued.find(id) != queued.end();
    const bool redeploy_pending = redeploy_ != nullptr && redeploy_->tracks(id);
    const int owners = (placed ? 1 : 0) + (boot_queued ? 1 : 0) +
                       (redeploy_pending ? 1 : 0);
    if (owners > 1) {
      failures.push_back("vm " + std::to_string(id) + " owned " +
                         std::to_string(owners) +
                         " times (placed=" + std::to_string(placed) +
                         " boot_queued=" + std::to_string(boot_queued) +
                         " redeploy=" + std::to_string(redeploy_pending) + ")");
    } else if (owners == 0 && config_.strict_vm_accounting) {
      failures.push_back("vm " + std::to_string(id) +
                         " is neither placed, boot-queued, nor pending redeploy");
    }
    // A migrating VM must stay placed on its source until completion.
    if (controller_->tracks_inflight(id) && !placed) {
      failures.push_back("vm " + std::to_string(id) +
                         " has an in-flight migration but no placement");
    }
  }
}

std::vector<std::string> RuntimeAuditor::collect_failures() const {
  std::vector<std::string> failures;
  const std::string engine = sim_.check_integrity();
  if (!engine.empty()) failures.push_back("engine: " + engine);
  for (std::string& failure : dc_.audit_invariants(config_.tolerance)) {
    failures.push_back("datacenter: " + std::move(failure));
  }
  check_vm_ownership(failures);
  return failures;
}

std::vector<std::string> RuntimeAuditor::run_audit() {
  ++stats_.audits_run;
  std::vector<std::string> failures = collect_failures();
  if (failures.empty()) return failures;

  ++stats_.audits_failed;
  stats_.failures_total += failures.size();
  std::fprintf(stderr, "[audit] t=%.3f: %zu invariant violation(s):\n", sim_.now(),
               failures.size());
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "[audit]   %s\n", failure.c_str());
  }

  switch (config_.action) {
    case AuditAction::kLog:
      break;
    case AuditAction::kAbort:
      std::fprintf(stderr,
                   "[audit] aborting (action=abort): sim_time=%.3f "
                   "executed_events=%llu pending_events=%zu\n",
                   sim_.now(),
                   static_cast<unsigned long long>(sim_.executed_events()),
                   sim_.pending_events());
      // _Exit, not abort: a distinct exit code lets CI and the nemesis
      // harness tell an audit violation from a crash, and skipping static
      // destructors avoids racing a live watchdog monitor thread.
      std::_Exit(util::exit_code::kAuditViolation);
    case AuditAction::kHeal: {
      const std::size_t repaired = dc_.heal_caches();
      ++stats_.heals_applied;
      std::fprintf(stderr, "[audit] heal: rebuilt %zu cache group(s)\n", repaired);
      failures = collect_failures();
      if (!failures.empty()) {
        std::fprintf(stderr,
                     "[audit] %zu violation(s) survive healing (true state "
                     "corruption, not cache drift):\n",
                     failures.size());
        for (const std::string& failure : failures) {
          std::fprintf(stderr, "[audit]   %s\n", failure.c_str());
        }
      }
      break;
    }
  }
  return failures;
}

}  // namespace ecocloud::ckpt
