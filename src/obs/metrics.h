#ifndef EGOCENSUS_SRC_OBS_METRICS_H_
#define EGOCENSUS_SRC_OBS_METRICS_H_

// Low-overhead metrics registry: named counters, max-gauges, and
// log2-bucketed histograms.
//
// Recording discipline: every thread writes to its own shard (created on
// first record, registered with the registry), so the hot path is one
// relaxed atomic add into thread-private memory — no locks, no cross-core
// traffic. Shards are merged on demand by Snapshot() with the same
// order-insensitive reduction as CensusStats::Merge: counters and
// histogram buckets are summed, gauges are max-ed. Enabling metrics
// therefore never perturbs census results, only observes them; and because
// the merge is order-insensitive, snapshots are identical for any worker
// count and scheduling.
//
// Shards of exiting threads (census workers live for one counting loop)
// fold into a retired accumulator, so metrics survive the threads that
// produced them. Shard slots are relaxed atomics written by their owner
// thread only, which makes concurrent Snapshot() calls race-free
// (TSan-clean) at the cost of one uncontended atomic op per event.
//
// Use the EGO_* macros for hot sites with string-literal names (the metric
// id is interned once per site), handle objects for hot loops with
// runtime-built names, and the free helpers for cold paths.

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/obs.h"

namespace egocensus::obs {

/// Histogram buckets: bucket 0 counts value 0, bucket b >= 1 counts values
/// in [2^(b-1), 2^b). 64 buckets cover the full uint64 range.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index of a value (0 for 0, else 1 + floor(log2(value))).
std::size_t HistogramBucket(std::uint64_t value);
/// Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
std::uint64_t HistogramBucketLow(std::size_t b);

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Order-insensitive: buckets/count/sum summed, max max-ed.
  void Merge(const HistogramSnapshot& other);

  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]).
  std::uint64_t ApproxPercentile(double p) const;
};

/// Point-in-time merge of all shards. Map-keyed by metric name so exports
/// and tests are deterministically ordered.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;  // max-merged
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
  /// mean,p50,p99,buckets:[{lo,count},...]}}} — buckets with zero count are
  /// omitted.
  void WriteJson(std::ostream& os) const;
  /// Flat CSV: metric,kind,count,sum,mean,max (counters/gauges use the
  /// value columns they have, empty otherwise).
  void WriteCsv(std::ostream& os) const;
};

/// Process-wide metric registry. Interning a name is mutex-protected and
/// idempotent; recording through an interned id is lock-free.
class Registry {
 public:
  /// Leaked singleton: must outlive thread_local shard destructors of
  /// detached threads, so it is never destroyed.
  static Registry& Global();

  std::uint32_t InternCounter(std::string_view name);
  std::uint32_t InternGauge(std::string_view name);
  std::uint32_t InternHistogram(std::string_view name);

  void CounterAdd(std::uint32_t id, std::uint64_t delta);
  void GaugeMax(std::uint32_t id, std::uint64_t value);
  void HistogramRecord(std::uint32_t id, std::uint64_t value);

  /// Merges retired + live shards (counters summed, gauges max-ed,
  /// histogram buckets summed). Metrics that never recorded a value are
  /// omitted.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every live shard and the retired accumulator. Interned names
  /// survive (macro-site ids stay valid). Not safe concurrently with
  /// recording threads; call between censuses.
  void Reset();

  /// Implementation detail, public only so the thread_local shard owner in
  /// metrics.cc can name it.
  struct Impl;

 private:
  Registry();
  ~Registry() = delete;  // leaked

  Impl* impl_;
};

// ---- Call-site helpers -------------------------------------------------

/// Pre-interned handles for hot loops whose metric names are built at
/// runtime (e.g. per-algorithm). Construction interns (cheap, once);
/// recording checks Enabled() first so a disabled run costs one relaxed
/// load + branch per call.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(std::string_view name) {
    id_ = Registry::Global().InternCounter(name);
  }
  void Add(std::uint64_t delta) const {
    if (Enabled()) Registry::Global().CounterAdd(id_, delta);
  }

 private:
  std::uint32_t id_ = 0;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(std::string_view name) {
    id_ = Registry::Global().InternGauge(name);
  }
  void Max(std::uint64_t value) const {
    if (Enabled()) Registry::Global().GaugeMax(id_, value);
  }

 private:
  std::uint32_t id_ = 0;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(std::string_view name) {
    id_ = Registry::Global().InternHistogram(name);
  }
  void Record(std::uint64_t value) const {
    if (Enabled()) Registry::Global().HistogramRecord(id_, value);
  }

 private:
  std::uint32_t id_ = 0;
};

/// Cold-path helpers: intern-by-name on every call (one hash lookup).
inline void CounterAdd(std::string_view name, std::uint64_t delta) {
  if (!Enabled()) return;
  Registry& r = Registry::Global();
  r.CounterAdd(r.InternCounter(name), delta);
}
inline void GaugeMax(std::string_view name, std::uint64_t value) {
  if (!Enabled()) return;
  Registry& r = Registry::Global();
  r.GaugeMax(r.InternGauge(name), value);
}
inline void HistogramRecord(std::string_view name, std::uint64_t value) {
  if (!Enabled()) return;
  Registry& r = Registry::Global();
  r.HistogramRecord(r.InternHistogram(name), value);
}

}  // namespace egocensus::obs

// Macro forms for string-literal sites: the handle is a function-local
// static, so the name is interned exactly once per site, lazily on the
// first *enabled* pass.
#define EGO_COUNTER_ADD(name, delta)                               \
  do {                                                             \
    if (::egocensus::obs::Enabled()) {                             \
      static const ::egocensus::obs::CounterHandle ego_obs_h_{name}; \
      ego_obs_h_.Add(delta);                                       \
    }                                                              \
  } while (0)

#define EGO_GAUGE_MAX(name, value)                               \
  do {                                                           \
    if (::egocensus::obs::Enabled()) {                           \
      static const ::egocensus::obs::GaugeHandle ego_obs_h_{name}; \
      ego_obs_h_.Max(value);                                     \
    }                                                            \
  } while (0)

#define EGO_HIST_RECORD(name, value)                                 \
  do {                                                               \
    if (::egocensus::obs::Enabled()) {                               \
      static const ::egocensus::obs::HistogramHandle ego_obs_h_{name}; \
      ego_obs_h_.Record(value);                                      \
    }                                                                \
  } while (0)

#endif  // EGOCENSUS_SRC_OBS_METRICS_H_
