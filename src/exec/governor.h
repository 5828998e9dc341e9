#ifndef EGOCENSUS_EXEC_GOVERNOR_H_
#define EGOCENSUS_EXEC_GOVERNOR_H_

// Resource-governance layer: deadlines, memory budgets, and cooperative
// cancellation for census queries (see docs/ROBUSTNESS.md).
//
// The paper's census queries are worst-case explosive — a k=2 neighborhood
// of a hub or a dense pattern can blow up matcher time and extraction
// memory by orders of magnitude — so every long-running loop in the system
// (matcher search-tree expansion, per-focal counting, per-cluster
// traversal, ParallelFor chunks, dynamic updates) polls a shared Governor at a
// cooperative checkpoint and winds down when it says stop. Stops are
// sticky and propagate to every thread sharing the Governor: the first
// checkpoint that observes an expired deadline, an exhausted budget, or a
// cancelled token records the reason once, and all later checkpoints —
// on any worker — return it immediately.
//
// Cost model: an ungoverned run (Governor* == nullptr, the default) pays
// one pointer test per checkpoint. A governed run pays one relaxed
// fetch_add plus, when a deadline is set, one steady-clock read per
// checkpoint. All state is relaxed atomics (TSan-clean, same discipline as
// the obs shards): the governor only ever transitions one way
// (running -> stopped), so no ordering is required beyond the atomicity.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/timer.h"

namespace egocensus {

/// Why a governed execution stopped early. kNone means "keep going".
enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled,          // explicit CancelToken::Cancel
  kDeadlineExceeded,   // monotonic deadline passed
  kResourceExhausted,  // memory budget overrun
};

const char* StopReasonName(StopReason reason);

/// A point on the steady clock (Timer::NowMicros). Default-constructed
/// deadlines are unlimited.
class Deadline {
 public:
  Deadline() = default;

  static Deadline AtMicros(std::uint64_t absolute_micros) {
    return Deadline(absolute_micros);
  }
  static Deadline AfterMicros(std::uint64_t micros) {
    return Deadline(Timer::NowMicros() + micros);
  }
  static Deadline AfterMillis(std::uint64_t millis) {
    return AfterMicros(millis * 1000);
  }

  bool unlimited() const { return micros_ == kUnlimited; }
  std::uint64_t micros() const { return micros_; }
  bool Expired() const {
    return !unlimited() && Timer::NowMicros() >= micros_;
  }
  /// Microseconds left; negative once expired, INT64_MAX when unlimited.
  std::int64_t RemainingMicros() const {
    if (unlimited()) return std::numeric_limits<std::int64_t>::max();
    return static_cast<std::int64_t>(micros_) -
           static_cast<std::int64_t>(Timer::NowMicros());
  }

 private:
  static constexpr std::uint64_t kUnlimited = ~0ull;
  explicit Deadline(std::uint64_t micros) : micros_(micros) {}
  std::uint64_t micros_ = kUnlimited;
};

/// Shared cancellation flag. Copies share one atomic, so a token handed to
/// another thread (or stashed in a failpoint handler) cancels the same
/// execution. Cancel/Cancelled are relaxed atomics — safe from any thread.
class CancelToken {
 public:
  CancelToken() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { cancelled_->store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Cumulative memory budget shared by every worker of one execution.
/// Charges model the query's footprint, not RSS: growable scratch buffers
/// charge their high-water growth (see ScratchCharge) and append-only
/// structures (match sets) charge per element. A limit of 0 is unlimited;
/// the charge that crosses the limit fails and stays recorded, so
/// charged_bytes() reports how far the query got.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Configure before the execution starts (not thread-safe vs TryCharge).
  void SetLimit(std::uint64_t limit_bytes) { limit_ = limit_bytes; }

  bool limited() const { return limit_ != 0; }
  std::uint64_t limit_bytes() const { return limit_; }
  std::uint64_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }

  /// Records the charge; false when it pushed the total past the limit.
  bool TryCharge(std::uint64_t bytes) {
    std::uint64_t total =
        charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    return limit_ == 0 || total <= limit_;
  }

 private:
  std::uint64_t limit_ = 0;
  std::atomic<std::uint64_t> charged_{0};
};

/// Bundle of deadline + budget + cancel token with the sticky stop state,
/// threaded through CensusOptions / MatchOptions and shared by reference
/// across all workers of one execution. Configure (SetDeadline /
/// SetMemoryLimitBytes) before the execution starts; checkpointing and
/// charging are thread-safe thereafter. One Governor governs one query:
/// the stop is sticky, so reuse would start already-stopped.
class Governor {
 public:
  Governor() = default;
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  void SetDeadline(Deadline deadline) { deadline_ = deadline; }
  void SetMemoryLimitBytes(std::uint64_t bytes) { budget_.SetLimit(bytes); }

  /// Attributes this execution to a caller-visible identity — the daemon
  /// sets the request id — so a governed stop's Status names the request
  /// that hit the limit ("census: cancelled [request r1a2b-7]"). Configure
  /// before the execution starts, like the deadline: the string is read by
  /// ToStatus after workers wind down, never from checkpoint hot paths.
  void SetAnnotation(std::string annotation) {
    annotation_ = std::move(annotation);
  }
  const std::string& annotation() const { return annotation_; }

  /// Time the request spent queued before execution began. The daemon's
  /// admission queue charges queue wait against the request's absolute
  /// deadline (SetDeadline(Deadline::AtMicros(...)) anchored at frame
  /// receipt), so a deadline stop may have burned most of its budget
  /// before the first checkpoint — recording the wait here lets ToStatus
  /// say so instead of blaming the execution. Configure before the
  /// execution starts, like the annotation.
  void SetQueueWaitMicros(std::uint64_t wait_us) { queue_wait_us_ = wait_us; }
  std::uint64_t queue_wait_micros() const { return queue_wait_us_; }

  const Deadline& deadline() const { return deadline_; }
  const MemoryBudget& budget() const { return budget_; }

  /// Shared handle for cancelling from another thread.
  CancelToken cancel_token() const { return cancel_; }
  void RequestCancel() { cancel_.Cancel(); }

  /// Cooperative checkpoint: the cheap per-unit-of-work poll every governed
  /// loop makes. Returns kNone to continue; anything else means wind down
  /// (finish nothing new, keep what is already complete). Also the
  /// "exec/checkpoint" failpoint site, so fault-injection tests can cancel
  /// at exactly the i-th checkpoint.
  StopReason Checkpoint();

  /// Charges `bytes` to the budget; on overrun records kResourceExhausted
  /// and returns false. Callers treat false exactly like a stopping
  /// Checkpoint().
  bool ChargeMemory(std::uint64_t bytes);

  /// Sticky stop state without the deadline poll (the per-chunk check in
  /// ParallelFor workers): one relaxed load.
  bool stopped() const { return reason() != StopReason::kNone; }
  StopReason reason() const {
    return static_cast<StopReason>(
        stop_reason_.load(std::memory_order_relaxed));
  }

  /// Checkpoints passed so far (all threads).
  std::uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  std::uint64_t memory_charged_bytes() const {
    return budget_.charged_bytes();
  }

  /// OK while running; otherwise the stop rendered as
  /// kCancelled / kDeadlineExceeded / kResourceExhausted with `context`
  /// naming the interrupted operation.
  [[nodiscard]] Status ToStatus(std::string_view context) const;

 private:
  /// Records `r` if no stop is recorded yet (first writer wins) and bumps
  /// the matching obs counter; returns the winning reason.
  StopReason Stop(StopReason r);

  Deadline deadline_;
  MemoryBudget budget_;
  CancelToken cancel_;
  std::string annotation_;
  std::uint64_t queue_wait_us_ = 0;
  std::atomic<std::uint8_t> stop_reason_{
      static_cast<std::uint8_t>(StopReason::kNone)};
  std::atomic<std::uint64_t> checkpoints_{0};
};

/// Charges the high-water footprint of one reused scratch buffer (BFS
/// workspace, extraction buffers): only growth beyond the largest size seen
/// so far is charged, so a tight loop reusing its buffers charges its peak,
/// not its traffic. One ScratchCharge per scratch object per worker.
class ScratchCharge {
 public:
  /// True to continue; false when the growth overran the budget (treat like
  /// a stopping checkpoint). Ungoverned (null) always continues.
  bool Update(Governor* governor, std::uint64_t bytes_now) {
    if (governor == nullptr || bytes_now <= charged_) return true;
    std::uint64_t growth = bytes_now - charged_;
    charged_ = bytes_now;
    return governor->ChargeMemory(growth);
  }

 private:
  std::uint64_t charged_ = 0;
};

}  // namespace egocensus

#endif  // EGOCENSUS_EXEC_GOVERNOR_H_
