#ifndef EGOCENSUS_EXEC_FAILPOINTS_H_
#define EGOCENSUS_EXEC_FAILPOINTS_H_

// Deterministic fault injection (see docs/ROBUSTNESS.md for the catalog).
//
// A failpoint is a named hook compiled into a hot path:
//
//   EGO_FAILPOINT("census/focal");
//
// In production nothing is armed and the macro costs one relaxed load of a
// global "any armed" flag (the same runtime gate as the obs macros' one
// load of obs::Enabled()). Tests arm a point by name to run a handler on
// its N-th hit:
//
//   failpoints::Arm("census/focal", 3, [&] { gov.RequestCancel(); });
//
// which makes "cancel at exactly the i-th checkpoint" a reproducible unit
// test instead of a timing race. Handlers observe, they do not throw:
// failpoint sites sit inside ParallelFor chunks and Status-returning code
// where exceptions must not escape — inject faults by flipping the state
// the production code already checks (cancel a token, exhaust a budget),
// not by unwinding.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>

namespace egocensus::failpoints {

/// Runs when an armed failpoint reaches its trigger hit. Must not throw.
using Handler = std::function<void()>;

namespace internal {
extern std::atomic<bool> g_any_armed;
void HitSlow(std::string_view name);
}  // namespace internal

/// True iff at least one failpoint is armed (relaxed; hot-path gate).
inline bool Active() {
  return internal::g_any_armed.load(std::memory_order_relaxed);
}

/// Arms `name` to run `handler` on its nth_hit-th hit (1-based) after
/// arming, once. nth_hit == 0 means observe only: count hits, never fire.
/// Re-arming an armed name replaces it (hit count restarts at zero).
void Arm(std::string_view name, std::uint64_t nth_hit, Handler handler);

/// Disarms `name`; its hit count remains readable until ResetHits.
void Disarm(std::string_view name);

/// Disarms everything and forgets all hit counts. Tests call this in
/// SetUp/TearDown so state never leaks across tests.
void DisarmAll();

/// Hits recorded for `name` since it was last armed (0 if never armed).
std::uint64_t Hits(std::string_view name);

/// Zeroes the hit count of `name`, keeping its arming.
void ResetHits(std::string_view name);

/// Hot-path entry (use the EGO_FAILPOINT macro, not this).
inline void Hit(std::string_view name) {
  if (Active()) internal::HitSlow(name);
}

}  // namespace egocensus::failpoints

#define EGO_FAILPOINT(name) ::egocensus::failpoints::Hit(name)

#endif  // EGOCENSUS_EXEC_FAILPOINTS_H_
