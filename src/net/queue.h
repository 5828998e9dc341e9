#ifndef EGOCENSUS_NET_QUEUE_H_
#define EGOCENSUS_NET_QUEUE_H_

// Bounded, deadline-aware fair request queue (docs/SERVER.md, "Admission
// and queueing").
//
// The daemon used to reject any QUERY/UPDATE beyond max_inflight with an
// immediate BUSY, so a short burst became a wall of client-visible
// failures. FairRequestQueue turns that cliff into a bounded wait: each
// tenant (the validated `tenant` request header, or the default tenant)
// owns a FIFO sub-queue, and a deficit-round-robin scheduler drains the
// sub-queues into the execution slots so one chatty tenant cannot starve
// the rest. The queue is bounded twice — by depth and by queued payload
// bytes — and anything beyond the bound still gets the classic structured
// BUSY, now with a retry_after_ms hint.
//
// Waiters are the connection threads themselves: Acquire() blocks the
// calling thread until it is granted a slot or evicted. While queued, each
// waiter self-checks every poll_ms for the three ways a queued request can
// die early: its deadline expires (the wait is charged against the
// request's Governor deadline, so a request that would wake up dead is
// evicted as DEADLINE_EXCEEDED without executing), its client hangs up
// (cancel-on-disconnect works in the queue, not just mid-execute), or the
// server starts draining and flushes the queue. Grants win races: a
// request granted in the same tick its client vanished executes normally
// and is cancelled by the regular disconnect watcher.
//
// Failpoints (exec/failpoints.h): `net/queue/enqueue` fires once per
// Acquire, `net/queue/dequeue` once per grant, `net/queue/evict` once per
// non-grant outcome — so at quiescence enqueue hits equal dequeue plus
// evict hits exactly, the conservation law the chaos test asserts.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace egocensus::net {

struct QueueOptions {
  /// Concurrent execution slots (the server's max_inflight).
  std::uint32_t slots = 8;

  /// Requests that may wait beyond the slots. 0 restores the legacy
  /// reject-on-full behavior: no queueing, overflow at slot exhaustion.
  std::size_t max_depth = 64;

  /// Total request payload bytes that may sit queued at once.
  std::uint64_t max_bytes = 32ull << 20;

  /// DRR quantum: requests granted per tenant per scheduling round. With
  /// the default 1 the scheduler is plain round-robin across backlogged
  /// tenants; larger values trade fairness granularity for FIFO runs.
  std::uint64_t quantum = 1;

  /// Waiter self-check period (deadline expiry, client disconnect, drain
  /// flush). Small: it bounds how long a dead request occupies the queue.
  int poll_ms = 5;
};

/// Why Acquire() returned without a grant — mapped by the server onto
/// structured BUSY/ERROR responses.
enum class AdmitOutcome : std::uint8_t {
  kGranted,          // slot held; caller must Release()
  kOverflow,         // depth or byte bound hit -> BUSY + retry_after_ms
  kDeadlineExpired,  // dead on arrival or died waiting -> ERROR
  kDisconnected,     // client hung up while queued -> no response possible
  kDraining,         // server drain in progress -> BUSY (do not retry here)
};

const char* AdmitOutcomeName(AdmitOutcome outcome);

/// Monotone per-tenant accounting, surfaced in STATUS ("tenants") and the
/// Prometheus exposition. `wait` is the obs log2 histogram of granted
/// queue waits in microseconds.
struct TenantQueueStats {
  std::string tenant;
  std::uint64_t depth = 0;  // currently queued (point-in-time)
  std::uint64_t enqueued = 0;
  std::uint64_t granted = 0;
  std::uint64_t busy_overflow = 0;
  std::uint64_t evicted_deadline = 0;
  std::uint64_t evicted_disconnect = 0;
  std::uint64_t evicted_drain = 0;
  // egolint: allow-obs(HistogramSnapshot compiles in both obs builds)
  obs::HistogramSnapshot wait;
};

/// One consistent read of the queue: every field taken under one lock.
struct QueueSnapshot {
  std::uint32_t active = 0;
  std::uint32_t peak_active = 0;
  std::size_t depth = 0;
  std::uint64_t queued_bytes = 0;
  bool draining = false;
  std::vector<TenantQueueStats> tenants;  // every tenant ever seen, by name
};

class FairRequestQueue {
 public:
  explicit FairRequestQueue(const QueueOptions& options);

  /// Out-of-line: tenants_ maps to the forward-declared Tenant, so the
  /// destructor must instantiate where Tenant is complete (queue.cc).
  ~FairRequestQueue();

  FairRequestQueue(const FairRequestQueue&) = delete;
  FairRequestQueue& operator=(const FairRequestQueue&) = delete;

  /// Blocks until a slot is granted or the request is evicted. `bytes` is
  /// the request payload size (charged against max_bytes while queued);
  /// `deadline_us` is the request's absolute steady-clock deadline in
  /// Timer::NowMicros() terms (0 = none); `client_fd` (-1 = none) is
  /// polled for hangup while queued. On return `*wait_us` holds the time
  /// spent in Acquire. Only kGranted holds a slot; pair it with Release().
  [[nodiscard]] AdmitOutcome Acquire(const std::string& tenant,
                                     std::uint64_t bytes,
                                     std::uint64_t deadline_us, int client_fd,
                                     std::uint64_t* wait_us);

  /// Frees a granted slot and wakes the scheduler.
  void Release();

  /// Drain phase 1: new Acquire() calls return kDraining immediately;
  /// already-queued waiters keep being served as slots free.
  void BeginDrain();

  /// Drain phase 2: evicts every still-queued waiter with kDraining (the
  /// server answers them with BUSY). Returns the number flushed.
  std::size_t FlushForDrain();

  bool draining() const;

  /// True when nothing is queued and no slot is held.
  bool Idle() const;

  std::uint32_t active() const;
  std::size_t depth() const;

  QueueSnapshot Snapshot() const;

  const QueueOptions& options() const { return options_; }

 private:
  struct Waiter;
  struct Tenant;

  /// Grants free slots to queued waiters in DRR order.
  void ScheduleLocked() EGO_REQUIRES(mu_);

  /// Removes a still-queued waiter from its tenant FIFO.
  void EvictLocked(Waiter* waiter, AdmitOutcome outcome) EGO_REQUIRES(mu_);

  /// Looks up / creates the per-tenant state.
  Tenant& TenantLocked(const std::string& tenant) EGO_REQUIRES(mu_);

  void RecordWaitLocked(Tenant& tenant, std::uint64_t wait_us)
      EGO_REQUIRES(mu_);

  /// Normalized in the constructor, read-only afterwards.
  // egolint: no-guard(immutable after construction, read lock-free)
  QueueOptions options_;

  mutable Mutex mu_;
  std::condition_variable cv_;
  bool draining_ EGO_GUARDED_BY(mu_) = false;
  std::uint32_t active_ EGO_GUARDED_BY(mu_) = 0;
  std::uint32_t peak_active_ EGO_GUARDED_BY(mu_) = 0;
  std::size_t depth_ EGO_GUARDED_BY(mu_) = 0;
  std::uint64_t queued_bytes_ EGO_GUARDED_BY(mu_) = 0;

  /// Tenant states live for the process lifetime (tenant names are
  /// validated to <= 64 bytes, so cardinality is operator-controlled).
  /// std::map: node stability lets Waiter/ring hold Tenant pointers.
  std::map<std::string, Tenant> tenants_ EGO_GUARDED_BY(mu_);

  /// DRR ring of tenants with queued work, in visit order.
  std::deque<Tenant*> ring_ EGO_GUARDED_BY(mu_);
};

}  // namespace egocensus::net

#endif  // EGOCENSUS_NET_QUEUE_H_
