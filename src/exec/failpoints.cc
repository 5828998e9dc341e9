#include "exec/failpoints.h"

#include <map>
#include <string>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace egocensus::failpoints {

namespace internal {
std::atomic<bool> g_any_armed{false};
}  // namespace internal

namespace {

struct Point {
  Handler handler;            // empty once fired or when observe-only
  std::uint64_t nth_hit = 0;  // 1-based trigger; 0 = observe only
  std::uint64_t hits = 0;
  bool armed = false;         // disarmed points linger to keep their hits
};

struct Registry {
  Mutex mu;
  // std::less<> so string_view lookups don't allocate on the hot path.
  std::map<std::string, Point, std::less<>> points EGO_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: handlers may run at exit
  return *r;
}

void RecomputeAnyArmedLocked(Registry& r) EGO_REQUIRES(r.mu) {
  bool any = false;
  for (const auto& [name, p] : r.points) {
    if (p.armed) {
      any = true;
      break;
    }
  }
  internal::g_any_armed.store(any, std::memory_order_relaxed);
}

}  // namespace

namespace internal {

void HitSlow(std::string_view name) {
  Registry& r = registry();
  Handler to_run;
  {
    MutexLock lock(r.mu);
    auto it = r.points.find(name);
    if (it == r.points.end() || !it->second.armed) return;
    Point& p = it->second;
    ++p.hits;
    if (p.nth_hit != 0 && p.hits == p.nth_hit) {
      to_run = std::move(p.handler);  // fire once
      p.handler = nullptr;
    }
  }
  // Run outside the lock: handlers commonly poke governors whose obs
  // counters or tests' own Arm/Disarm calls would otherwise deadlock.
  if (to_run) to_run();
}

}  // namespace internal

void Arm(std::string_view name, std::uint64_t nth_hit, Handler handler) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  Point& p = r.points[std::string(name)];
  p.handler = std::move(handler);
  p.nth_hit = nth_hit;
  p.hits = 0;
  p.armed = true;
  internal::g_any_armed.store(true, std::memory_order_relaxed);
}

void Disarm(std::string_view name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end()) return;
  it->second.armed = false;
  it->second.handler = nullptr;
  RecomputeAnyArmedLocked(r);
}

void DisarmAll() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  r.points.clear();
  internal::g_any_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t Hits(std::string_view name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.hits;
}

void ResetHits(std::string_view name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.points.find(name);
  if (it != r.points.end()) it->second.hits = 0;
}

}  // namespace egocensus::failpoints
