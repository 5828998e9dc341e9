#ifndef EGOCENSUS_SRC_OBS_TRACE_H_
#define EGOCENSUS_SRC_OBS_TRACE_H_

// Scoped span tracer: EGO_SPAN("census/match") records one begin/end
// interval (steady-clock micros via Timer::NowMicros) tagged with a small
// sequential thread id, into a thread-local buffer. Buffers of exited
// threads fold into a retired list, so spans from census workers survive
// the workers. WriteChromeTrace emits the Chrome trace_event JSON format —
// load the file in chrome://tracing or https://ui.perfetto.dev to see the
// phase/worker timeline.
//
// Spans are coarse by design (per census phase, per worker, per dynamic
// update) — recording costs one relaxed fetch_add and one push_back into a
// thread-private vector, but a span per focal node would still dominate
// small neighborhoods. Guarded by obs::Enabled() like the metrics registry.
// The tracer holds at most kMaxSpans spans, so a long-running process
// with observability on (ecensusd --obs) that nobody exports from stays
// bounded; spans past the cap are dropped and counted in the
// `obs/trace/dropped_spans` counter.
//
// Snapshot()/WriteChromeTrace() must not race with threads actively
// recording spans; in practice census workers are joined before a query
// returns, so exporting after the query sees a quiesced tracer.

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/obs.h"
#include "util/timer.h"

namespace egocensus::obs {

struct SpanRecord {
  const char* name = nullptr;  // static-storage string (macro literal)
  std::uint64_t begin_us = 0;  // Timer::NowMicros at scope entry
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;       // sequential id, 0 = first recording thread
  std::uint64_t arg = 0;       // optional numeric payload
  bool has_arg = false;
};

/// Most spans the tracer holds (48 bytes each, 3 MB in all): far above the
/// largest trace an in-tree tool writes (docs/OBSERVABILITY.md, "The span
/// cap").
inline constexpr std::size_t kMaxSpans = std::size_t{1} << 16;

class Tracer {
 public:
  /// Leaked singleton (outlives thread_local buffer destructors).
  static Tracer& Global();

  /// Keeps the span unless the tracer already holds kMaxSpans; a dropped
  /// span adds 1 to the `obs/trace/dropped_spans` counter.
  void Record(const char* name, std::uint64_t begin_us, std::uint64_t end_us,
              std::uint64_t arg, bool has_arg);

  /// All recorded spans (retired + live buffers), unordered.
  std::vector<SpanRecord> Snapshot() const;

  /// The `obs/trace/dropped_spans` counter: spans refused at the cap since
  /// the registry was last reset.
  static std::uint64_t Dropped();

  /// Drops all recorded spans (live buffers and retired), which frees the
  /// cap for new ones. The drop counter is a registry metric, which
  /// Registry::Reset() zeroes.
  void Reset();

  /// Chrome trace_event JSON ("X" complete events, ts normalized so the
  /// earliest span starts at 0). Optional numeric args appear as
  /// args.value.
  void WriteChromeTrace(std::ostream& os) const;

  /// Small sequential id of the calling thread (assigned on first use).
  static std::uint32_t CurrentThreadId();

  /// Implementation detail, public only so the thread_local buffer owner in
  /// trace.cc can name it.
  struct Impl;

 private:
  Tracer();
  ~Tracer() = delete;  // leaked

  Impl* impl_;
};

/// RAII span. Captures the begin timestamp if observability is enabled at
/// construction; the destructor records through the tracer. A span whose
/// scope outlives a SetEnabled(false) is still recorded (its begin was
/// observed); one started disabled records nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Enabled()) {
      name_ = name;
      begin_us_ = Timer::NowMicros();
    }
  }
  ScopedSpan(const char* name, std::uint64_t arg) : ScopedSpan(name) {
    arg_ = arg;
    has_arg_ = true;
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records the span now instead of at scope exit (for phases that end
  /// mid-function); idempotent, the destructor becomes a no-op.
  void End() {
    if (name_ != nullptr) {
      Tracer::Global().Record(name_, begin_us_, Timer::NowMicros(), arg_,
                              has_arg_);
      name_ = nullptr;
    }
  }

  /// Attaches/overwrites the numeric payload (e.g. a result size known
  /// only at scope exit).
  void SetArg(std::uint64_t arg) {
    arg_ = arg;
    has_arg_ = true;
  }

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_us_ = 0;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
};

}  // namespace egocensus::obs

#define EGO_OBS_CONCAT_INNER_(a, b) a##b
#define EGO_OBS_CONCAT_(a, b) EGO_OBS_CONCAT_INNER_(a, b)

/// EGO_SPAN("name") or EGO_SPAN("name", numeric_arg): scoped span covering
/// the rest of the enclosing block.
#define EGO_SPAN(...)                                    \
  ::egocensus::obs::ScopedSpan EGO_OBS_CONCAT_(ego_span_, \
                                               __LINE__)(__VA_ARGS__)

#endif  // EGOCENSUS_SRC_OBS_TRACE_H_
