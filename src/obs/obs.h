#ifndef EGOCENSUS_SRC_OBS_OBS_H_
#define EGOCENSUS_SRC_OBS_OBS_H_

// Master switch of the observability layer (metrics registry + span
// tracer, see obs/metrics.h and obs/trace.h).
//
// Observability is compiled in and off by default. Every instrumentation
// site is guarded by Enabled(), a single relaxed atomic load + predictable
// branch; nothing is interned, allocated, or recorded until
// SetEnabled(true).

#include <atomic>

namespace egocensus::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True when metric/span recording is active. Hot-path guard: one relaxed
/// load, no fence.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off process-wide. Toggling while worker threads
/// are mid-census is safe (sites re-check per event) but yields partial
/// data; callers normally enable before a query and export after it.
void SetEnabled(bool enabled);

}  // namespace egocensus::obs

#endif  // EGOCENSUS_SRC_OBS_OBS_H_
