#ifndef EGOCENSUS_SRC_OBS_LOG_H_
#define EGOCENSUS_SRC_OBS_LOG_H_

// Structured JSON-lines logger for the daemon's request telemetry
// (docs/OBSERVABILITY.md, "Request telemetry"): one flat JSON object per
// line, leveled, thread-safe, and rate-limited, writing to stderr or an
// append-opened file (`ecensusd --log-file`).
//
// The canonical consumer is net/server.cc, which emits exactly one wide
// "request" event per dispatched frame. Events are assembled off-lock with
// LogEvent (an ordered key/value JSON builder) and serialized under one
// mutex in Logger::Write, so concurrent request threads never interleave
// bytes within a line.
//
// Gating: unlike the metrics registry, the logger is independent of the
// runtime obs::Enabled() toggle: it is active iff a sink is configured
// (enabled()), because operators want request logs even when the metric
// shards are off.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace egocensus::obs {

enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

const char* LogLevelName(LogLevel level);

/// Parses "debug"/"info"/"warn"/"error" (the --log-level values); anything
/// else falls back to kInfo.
LogLevel LogLevelFromName(std::string_view name);

/// Ordered JSON-object builder for one log line. Keys are emitted in call
/// order; values are escaped (Str) or rendered verbatim (Raw, for nested
/// pre-rendered JSON). Not thread-safe; build per event, then hand to
/// Logger::Write.
class LogEvent {
 public:
  explicit LogEvent(std::string_view event_name);

  LogEvent& Str(std::string_view key, std::string_view value);
  LogEvent& Int(std::string_view key, std::uint64_t value);
  LogEvent& Float(std::string_view key, double value);
  LogEvent& Bool(std::string_view key, bool value);
  /// `json` must already be valid JSON (object/array/number).
  LogEvent& Raw(std::string_view key, std::string_view json);

  /// The accumulated `"k":v,...` field list (no surrounding braces).
  const std::string& fields() const { return fields_; }

 private:
  std::string fields_;
};

/// Process-wide JSON-lines sink. Leaked singleton like obs::Registry, so
/// detached threads logging at process exit never touch a destroyed object.
class Logger {
 public:
  static Logger& Global();

  /// Routes lines to `path`, opened for append. Replaces any prior sink.
  [[nodiscard]] Status OpenFile(const std::string& path);
  /// Routes lines to stderr. Replaces any prior sink.
  void UseStderr();

  /// Minimum level written; lower-level events are dropped before the lock.
  void SetMinLevel(LogLevel level);
  /// At most `max_per_sec` lines per wall-clock second (fixed windows);
  /// excess lines count in dropped(). 0 = unlimited (the default).
  void SetRateLimit(std::uint64_t max_per_sec);

  /// True once a sink is configured. Callers check this before assembling
  /// an event so a quiet daemon pays one relaxed load per request.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  bool ShouldLog(LogLevel level) const {
    return enabled() &&
           static_cast<std::uint8_t>(level) >=
               min_level_.load(std::memory_order_relaxed);
  }

  /// Serializes `{"ts_us":...,"level":"...",<fields>}` + newline and
  /// flushes, under the writer mutex.
  void Write(LogLevel level, const LogEvent& event);

  std::uint64_t written() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Closes the sink and restores defaults (tests run many configurations
  /// against the one global instance).
  void ResetForTest();

 private:
  Logger() = default;
  ~Logger() = delete;  // leaked

  struct Impl;
  Impl& impl();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint8_t> min_level_{
      static_cast<std::uint8_t>(LogLevel::kInfo)};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace egocensus::obs

#endif  // EGOCENSUS_SRC_OBS_LOG_H_
