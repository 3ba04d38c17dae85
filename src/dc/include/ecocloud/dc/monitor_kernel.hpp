#pragma once

/// \file monitor_kernel.hpp
/// \brief Columnar classification kernel for the monitor hot path.
///
/// One pass over the ServerSoA columns computes, for a contiguous id
/// range, the fast-path effective utilization (demand/capacity clamped to
/// [0,1] — exact for every server with no outbound migrations) and a
/// 4-way class byte against the [Tl, Th] band. The loop is branch-free
/// and touches only dense POD columns, so the compiler vectorizes it. The
/// class byte is masked by integer arithmetic (`band * live`): a
/// `live ? band : 0` select kept GCC 12 from if-converting the loop under
/// its default -ftrapping-math, so it did not vectorize (CI now checks the
/// AVX2 object for vdivpd). An AVX2 translation unit and a portable scalar
/// one compile the SAME loop body and the dispatcher picks at runtime.
/// Every operation in the loop (divide, compare, clamp via select) is
/// IEEE-exact, so the two builds are bit-identical by construction —
/// `tests/monitor_kernel_test.cpp` locks them together anyway, and CI runs
/// a forced-scalar leg (ECOCLOUD_FORCE_SCALAR_KERNEL=1). See DESIGN.md §17.

#include <cstddef>
#include <cstdint>

namespace ecocloud::dc {

struct ServerSoA;

/// Per-server monitor classification. Values are chosen so the batch loop
/// can compute them arithmetically: skip = 0, otherwise 1 + (u < Tl) +
/// 2*(u > Th) — Tl < Th makes the two predicates exclusive.
enum class MonitorClass : std::uint8_t {
  kSkip = 0,    ///< not active, or hosts nothing: monitor tick is a no-op
  kInBand = 1,  ///< Tl <= u <= Th: no trial
  kLow = 2,     ///< u < Tl: f_l Bernoulli trial at fire time
  kHigh = 3,    ///< u > Th: f_h Bernoulli trial at fire time
};

namespace detail {

/// The shared loop body. Compiled once per ISA translation unit; must stay
/// free of FMA-contractible operations (only divide/compare/select) so
/// every build produces bit-identical u_eff values; the class byte stays
/// integer arithmetic so that the loop vectorizes (see the file comment).
inline void classify_loop(const std::uint8_t* state, const std::uint32_t* vm_count,
                          const double* demand_mhz, const double* capacity_mhz,
                          std::size_t begin, std::size_t end, double tl, double th,
                          double* u_eff, std::uint8_t* cls) {
  constexpr std::uint8_t kActiveByte = 2;  // ServerState::kActive
  for (std::size_t i = begin; i < end; ++i) {
    // util::clamp01(demand_ratio()) exactly: demand >= 0 and capacity > 0,
    // so u >= 0 and never NaN — the lower clamp is a no-op kept for shape.
    double u = demand_mhz[i] / capacity_mhz[i];
    u = u < 0.0 ? 0.0 : u;
    u = u > 1.0 ? 1.0 : u;
    u_eff[i] = u;
    const std::uint8_t band = static_cast<std::uint8_t>(
        1u + (u < tl ? 1u : 0u) + (u > th ? 2u : 0u));
    const bool live = (state[i] == kActiveByte) & (vm_count[i] != 0u);
    cls[i] = static_cast<std::uint8_t>(band * live);
  }
}

}  // namespace detail

/// Classify servers [begin, end) through the best kernel this host
/// supports (AVX2 when built in and the CPU has it, scalar otherwise; the
/// ECOCLOUD_FORCE_SCALAR_KERNEL environment variable — checked once, at
/// first call — pins the scalar build). Writes u_eff[i] and cls[i] for
/// every i in the range; cls values are MonitorClass bytes.
void monitor_classify(const ServerSoA& soa, std::size_t begin, std::size_t end,
                      double tl, double th, double* u_eff, std::uint8_t* cls);

/// The portable reference kernel, always scalar-compiled. The lockstep
/// property test compares monitor_classify against this bit for bit.
void monitor_classify_scalar(const ServerSoA& soa, std::size_t begin,
                             std::size_t end, double tl, double th,
                             double* u_eff, std::uint8_t* cls);

/// Name of the kernel monitor_classify dispatches to on this host:
/// "avx2" or "scalar". Recorded by bench_perf_engine next to the CPU
/// model so BENCH_engine.json rows are interpretable across hosts.
[[nodiscard]] const char* monitor_kernel_name();

}  // namespace ecocloud::dc
