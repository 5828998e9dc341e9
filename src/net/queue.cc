#include "net/queue.h"

#include <algorithm>
#include <chrono>

#include "exec/failpoints.h"
#include "util/timer.h"

namespace egocensus::net {
namespace {

/// DRR quantum: requests granted per tenant per scheduling round. At 1 the
/// scheduler is plain round-robin across backlogged tenants.
constexpr std::uint64_t kQuantum = 1;

}  // namespace

struct FairRequestQueue::Waiter {
  Tenant* tenant = nullptr;
  std::uint64_t bytes = 0;
  AdmitOutcome outcome = AdmitOutcome::kGranted;
  bool decided = false;  // granted or evicted
};

struct FairRequestQueue::Tenant {
  TenantQueueStats stats;
  std::deque<Waiter*> fifo;
  std::uint64_t deficit = 0;
  bool in_ring = false;
};

FairRequestQueue::FairRequestQueue(const QueueOptions& options)
    : options_(options) {
  if (options_.slots == 0) options_.slots = 1;
}

FairRequestQueue::~FairRequestQueue() = default;

FairRequestQueue::Tenant& FairRequestQueue::TenantLocked(
    const std::string& tenant) {
  Tenant& t = tenants_[tenant];
  if (t.stats.tenant.empty()) t.stats.tenant = tenant;
  return t;
}

void FairRequestQueue::RecordWaitLocked(Tenant& tenant,
                                        std::uint64_t wait_us) {
  auto& wait = tenant.stats.wait;
  ++wait.count;
  wait.sum += wait_us;
  wait.max = std::max(wait.max, wait_us);
  ++wait.buckets[obs::HistogramBucket(wait_us)];
}

void FairRequestQueue::ScheduleLocked() {
  while (active_ < options_.slots && depth_ > 0) {
    Tenant* t = ring_.front();
    if (t->fifo.empty()) {
      // Emptied by grants or evictions since it was queued; drop it from
      // the ring and reset its deficit so an idle tenant never banks
      // credit toward a future burst.
      ring_.pop_front();
      t->in_ring = false;
      t->deficit = 0;
      continue;
    }
    if (t->deficit == 0) {
      // Out of credit this round: top up and rotate to the back.
      t->deficit = kQuantum;
      ring_.pop_front();
      ring_.push_back(t);
      continue;
    }
    --t->deficit;  // cost = 1 request
    Waiter* w = t->fifo.front();
    t->fifo.pop_front();
    --depth_;
    queued_bytes_ -= w->bytes;
    w->outcome = AdmitOutcome::kGranted;
    w->decided = true;
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    ++t->stats.granted;
  }
}

void FairRequestQueue::EvictLocked(Waiter* waiter, AdmitOutcome outcome) {
  Tenant& t = *waiter->tenant;
  auto it = std::find(t.fifo.begin(), t.fifo.end(), waiter);
  if (it != t.fifo.end()) t.fifo.erase(it);
  --depth_;
  queued_bytes_ -= waiter->bytes;
  waiter->outcome = outcome;
  waiter->decided = true;
  switch (outcome) {
    case AdmitOutcome::kDeadlineExpired: ++t.stats.evicted_deadline; break;
    case AdmitOutcome::kDisconnected: ++t.stats.evicted_disconnect; break;
    case AdmitOutcome::kDraining: ++t.stats.evicted_drain; break;
    default: break;
  }
  // A freed queue position may unblock nothing by itself, but eviction of
  // a head-of-line waiter changes what the scheduler would grant next.
  ScheduleLocked();
}

AdmitOutcome FairRequestQueue::Acquire(const std::string& tenant,
                                       std::uint64_t bytes,
                                       std::uint64_t deadline_us,
                                       const CancelToken& cancel,
                                       std::uint64_t* wait_us) {
  EGO_FAILPOINT("net/queue/enqueue");
  const std::uint64_t enqueue_us = Timer::NowMicros();
  *wait_us = 0;
  Waiter waiter;
  {
    MutexLock lock(mu_);
    Tenant& t = TenantLocked(tenant);
    ++t.stats.enqueued;
    if (draining_) {
      ++t.stats.evicted_drain;
      lock.Unlock();
      EGO_FAILPOINT("net/queue/evict");
      return AdmitOutcome::kDraining;
    }
    if (deadline_us != 0 && enqueue_us >= deadline_us) {
      // Dead on arrival: the deadline already covers zero execution time.
      ++t.stats.evicted_deadline;
      lock.Unlock();
      EGO_FAILPOINT("net/queue/evict");
      return AdmitOutcome::kDeadlineExpired;
    }
    if (depth_ == 0 && active_ < options_.slots) {
      // Fast path: idle slot and an empty queue — grant without queueing.
      // (Skipping the queue is fair here: nobody is waiting.)
      ++active_;
      peak_active_ = std::max(peak_active_, active_);
      ++t.stats.granted;
      RecordWaitLocked(t, 0);
      lock.Unlock();
      EGO_FAILPOINT("net/queue/dequeue");
      return AdmitOutcome::kGranted;
    }
    if (options_.max_depth == 0 || depth_ >= options_.max_depth ||
        queued_bytes_ + bytes > options_.max_bytes) {
      ++t.stats.busy_overflow;
      lock.Unlock();
      EGO_FAILPOINT("net/queue/evict");
      return AdmitOutcome::kOverflow;
    }

    waiter.tenant = &t;
    waiter.bytes = bytes;
    t.fifo.push_back(&waiter);
    if (!t.in_ring) {
      t.deficit = kQuantum;
      t.in_ring = true;
      ring_.push_back(&t);
    }
    ++depth_;
    queued_bytes_ += bytes;
    ScheduleLocked();  // a slot may already be free

    // Sleep until a grant or a drain flush decides us, the deadline
    // passes, or the token is cancelled (Wake() follows every cancel).
    while (!waiter.decided) {
      const std::uint64_t now = Timer::NowMicros();
      if (deadline_us != 0 && now >= deadline_us) {
        EvictLocked(&waiter, AdmitOutcome::kDeadlineExpired);
      } else if (cancel.Cancelled()) {
        EvictLocked(&waiter, AdmitOutcome::kDisconnected);
      } else if (deadline_us != 0) {
        lock.WaitFor(cv_, std::chrono::microseconds(deadline_us - now));
      } else {
        lock.Wait(cv_);
      }
    }
    const std::uint64_t waited = Timer::NowMicros() - enqueue_us;
    *wait_us = waited;
    if (waiter.outcome == AdmitOutcome::kGranted) {
      RecordWaitLocked(t, waited);
    }
  }
  // Our enqueue or eviction may have let the scheduler grant other
  // waiters, who sleep until notified.
  cv_.notify_all();
  if (waiter.outcome == AdmitOutcome::kGranted) {
    EGO_FAILPOINT("net/queue/dequeue");
  } else {
    EGO_FAILPOINT("net/queue/evict");
  }
  return waiter.outcome;
}

void FairRequestQueue::Release() {
  {
    MutexLock lock(mu_);
    if (active_ > 0) --active_;
    ScheduleLocked();
  }
  cv_.notify_all();
}

void FairRequestQueue::Wake() {
  // Notifying under mu_ orders the wake after any waiter's check-then-wait,
  // so a cancel that lands between a waiter's check and its wait is seen.
  MutexLock lock(mu_);
  cv_.notify_all();
}

void FairRequestQueue::BeginDrain() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

std::size_t FairRequestQueue::FlushForDrain() {
  std::size_t flushed = 0;
  {
    MutexLock lock(mu_);
    draining_ = true;
    for (auto& [name, t] : tenants_) {
      while (!t.fifo.empty()) {
        Waiter* w = t.fifo.front();
        t.fifo.pop_front();
        --depth_;
        queued_bytes_ -= w->bytes;
        w->outcome = AdmitOutcome::kDraining;
        w->decided = true;
        ++t.stats.evicted_drain;
        ++flushed;
      }
    }
  }
  cv_.notify_all();
  return flushed;
}

bool FairRequestQueue::draining() const {
  MutexLock lock(mu_);
  return draining_;
}

bool FairRequestQueue::Idle() const {
  MutexLock lock(mu_);
  return depth_ == 0 && active_ == 0;
}

std::uint32_t FairRequestQueue::active() const {
  MutexLock lock(mu_);
  return active_;
}

std::size_t FairRequestQueue::depth() const {
  MutexLock lock(mu_);
  return depth_;
}

QueueSnapshot FairRequestQueue::Snapshot() const {
  MutexLock lock(mu_);
  QueueSnapshot out;
  out.active = active_;
  out.peak_active = peak_active_;
  out.depth = depth_;
  out.queued_bytes = queued_bytes_;
  out.draining = draining_;
  out.tenants.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    out.tenants.push_back(t.stats);
    out.tenants.back().depth = t.fifo.size();
  }
  return out;
}

}  // namespace egocensus::net
