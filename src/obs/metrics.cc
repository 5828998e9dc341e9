#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/strings.h"
#include "util/thread_annotations.h"

namespace egocensus::obs {

#if EGO_OBS_ENABLED
namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}
#endif

std::size_t HistogramBucket(std::uint64_t value) {
  if (value == 0) return 0;
  std::size_t b = static_cast<std::size_t>(64 - std::countl_zero(value));
  // Values >= 2^62 share the last bucket (its range is open-ended).
  return std::min(b, kHistogramBuckets - 1);
}

std::uint64_t HistogramBucketLow(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

std::uint64_t HistogramSnapshot::ApproxPercentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Nearest-rank percentile, 1-based; bucket upper bounds are conservative.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Upper bound of bucket b, clamped to the observed max.
      std::uint64_t hi = b == 0 ? 0 : (HistogramBucketLow(b) << 1) - 1;
      return std::min(hi, max);
    }
  }
  return max;
}

namespace {

/// Per-thread metric storage. Slots are relaxed atomics written only by
/// the owning thread; other threads read them during Snapshot(). deque
/// keeps element addresses stable across growth (atomics are immovable).
struct ShardSlots {
  std::deque<std::atomic<std::uint64_t>> counters;
  std::deque<std::atomic<std::uint64_t>> gauges;
  struct Hist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::deque<Hist> hists;
};

void EnsureSize(std::deque<std::atomic<std::uint64_t>>* slots, std::size_t n) {
  while (slots->size() < n) slots->emplace_back(0);
}

}  // namespace

struct Registry::Impl {
  struct Shard {
    ShardSlots slots;
  };

  mutable Mutex mu;
  // name -> id per kind, and id -> name (ids index snapshot arrays).
  std::unordered_map<std::string, std::uint32_t> counter_ids
      EGO_GUARDED_BY(mu);
  std::unordered_map<std::string, std::uint32_t> gauge_ids
      EGO_GUARDED_BY(mu);
  std::unordered_map<std::string, std::uint32_t> hist_ids EGO_GUARDED_BY(mu);
  std::vector<std::string> counter_names EGO_GUARDED_BY(mu);
  std::vector<std::string> gauge_names EGO_GUARDED_BY(mu);
  std::vector<std::string> hist_names EGO_GUARDED_BY(mu);

  std::vector<Shard*> live_shards EGO_GUARDED_BY(mu);
  // Values of shards whose threads exited, folded under mu.
  std::vector<std::uint64_t> retired_counters EGO_GUARDED_BY(mu);
  std::vector<std::uint64_t> retired_gauges EGO_GUARDED_BY(mu);  // max-merged
  std::vector<HistogramSnapshot> retired_hists EGO_GUARDED_BY(mu);

  Shard* ThisShard();
  void Retire(Shard* shard);
  void FoldLocked(const ShardSlots& slots) EGO_REQUIRES(mu);
};

namespace {

/// Owns one thread's shard; the destructor folds its values into the
/// registry's retired accumulator so pool workers leave no data behind.
struct ShardOwner {
  Registry::Impl* impl = nullptr;
  Registry::Impl::Shard* shard = nullptr;
  ~ShardOwner() {
    if (impl != nullptr && shard != nullptr) impl->Retire(shard);
  }
};

}  // namespace

Registry::Impl::Shard* Registry::Impl::ThisShard() {
  thread_local ShardOwner owner;
  if (owner.shard == nullptr) {
    auto* shard = new Shard();
    {
      MutexLock lock(mu);
      live_shards.push_back(shard);
    }
    owner.impl = this;
    owner.shard = shard;
  }
  return owner.shard;
}

void Registry::Impl::FoldLocked(const ShardSlots& slots) {
  if (retired_counters.size() < slots.counters.size()) {
    retired_counters.resize(slots.counters.size(), 0);
  }
  for (std::size_t i = 0; i < slots.counters.size(); ++i) {
    retired_counters[i] += slots.counters[i].load(std::memory_order_relaxed);
  }
  if (retired_gauges.size() < slots.gauges.size()) {
    retired_gauges.resize(slots.gauges.size(), 0);
  }
  for (std::size_t i = 0; i < slots.gauges.size(); ++i) {
    retired_gauges[i] = std::max(
        retired_gauges[i], slots.gauges[i].load(std::memory_order_relaxed));
  }
  if (retired_hists.size() < slots.hists.size()) {
    retired_hists.resize(slots.hists.size());
  }
  for (std::size_t i = 0; i < slots.hists.size(); ++i) {
    HistogramSnapshot h;
    h.count = slots.hists[i].count.load(std::memory_order_relaxed);
    h.sum = slots.hists[i].sum.load(std::memory_order_relaxed);
    h.max = slots.hists[i].max.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] = slots.hists[i].buckets[b].load(std::memory_order_relaxed);
    }
    retired_hists[i].Merge(h);
  }
}

void Registry::Impl::Retire(Shard* shard) {
  MutexLock lock(mu);
  FoldLocked(shard->slots);
  live_shards.erase(
      std::remove(live_shards.begin(), live_shards.end(), shard),
      live_shards.end());
  delete shard;
}

Registry::Registry() : impl_(new Impl()) {}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked, see header
  return *registry;
}

namespace {

std::uint32_t InternLocked(std::unordered_map<std::string, std::uint32_t>* ids,
                           std::vector<std::string>* names,
                           std::string_view name) {
  auto it = ids->find(std::string(name));
  if (it != ids->end()) return it->second;
  std::uint32_t id = static_cast<std::uint32_t>(names->size());
  names->emplace_back(name);
  ids->emplace(std::string(name), id);
  return id;
}

}  // namespace

std::uint32_t Registry::InternCounter(std::string_view name) {
  MutexLock lock(impl_->mu);
  return InternLocked(&impl_->counter_ids, &impl_->counter_names, name);
}

std::uint32_t Registry::InternGauge(std::string_view name) {
  MutexLock lock(impl_->mu);
  return InternLocked(&impl_->gauge_ids, &impl_->gauge_names, name);
}

std::uint32_t Registry::InternHistogram(std::string_view name) {
  MutexLock lock(impl_->mu);
  return InternLocked(&impl_->hist_ids, &impl_->hist_names, name);
}

void Registry::CounterAdd(std::uint32_t id, std::uint64_t delta) {
  auto& slots = impl_->ThisShard()->slots;
  EnsureSize(&slots.counters, id + 1);
  slots.counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void Registry::GaugeMax(std::uint32_t id, std::uint64_t value) {
  auto& slots = impl_->ThisShard()->slots;
  EnsureSize(&slots.gauges, id + 1);
  // Owner-thread-only writes: plain compare-then-store is enough.
  auto& slot = slots.gauges[id];
  if (value > slot.load(std::memory_order_relaxed)) {
    slot.store(value, std::memory_order_relaxed);
  }
}

void Registry::HistogramRecord(std::uint32_t id, std::uint64_t value) {
  auto& slots = impl_->ThisShard()->slots;
  while (slots.hists.size() <= id) slots.hists.emplace_back();
  auto& hist = slots.hists[id];
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum.fetch_add(value, std::memory_order_relaxed);
  if (value > hist.max.load(std::memory_order_relaxed)) {
    hist.max.store(value, std::memory_order_relaxed);
  }
  hist.buckets[HistogramBucket(value)].fetch_add(1,
                                                 std::memory_order_relaxed);
}

MetricsSnapshot Registry::Snapshot() const {
  MutexLock lock(impl_->mu);

  std::vector<std::uint64_t> counters = impl_->retired_counters;
  std::vector<std::uint64_t> gauges = impl_->retired_gauges;
  std::vector<HistogramSnapshot> hists = impl_->retired_hists;
  counters.resize(impl_->counter_names.size(), 0);
  gauges.resize(impl_->gauge_names.size(), 0);
  hists.resize(impl_->hist_names.size());

  for (const Impl::Shard* shard : impl_->live_shards) {
    const ShardSlots& slots = shard->slots;
    for (std::size_t i = 0; i < slots.counters.size(); ++i) {
      counters[i] += slots.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < slots.gauges.size(); ++i) {
      gauges[i] = std::max(gauges[i],
                           slots.gauges[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < slots.hists.size(); ++i) {
      HistogramSnapshot h;
      h.count = slots.hists[i].count.load(std::memory_order_relaxed);
      h.sum = slots.hists[i].sum.load(std::memory_order_relaxed);
      h.max = slots.hists[i].max.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[b] =
            slots.hists[i].buckets[b].load(std::memory_order_relaxed);
      }
      hists[i].Merge(h);
    }
  }

  MetricsSnapshot snapshot;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (counters[i] != 0) {
      snapshot.counters[impl_->counter_names[i]] = counters[i];
    }
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (gauges[i] != 0) snapshot.gauges[impl_->gauge_names[i]] = gauges[i];
  }
  for (std::size_t i = 0; i < hists.size(); ++i) {
    if (hists[i].count != 0) {
      snapshot.histograms[impl_->hist_names[i]] = hists[i];
    }
  }
  return snapshot;
}

void Registry::Reset() {
  MutexLock lock(impl_->mu);
  impl_->retired_counters.clear();
  impl_->retired_gauges.clear();
  impl_->retired_hists.clear();
  for (Impl::Shard* shard : impl_->live_shards) {
    for (auto& c : shard->slots.counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& g : shard->slots.gauges) {
      g.store(0, std::memory_order_relaxed);
    }
    for (auto& h : shard->slots.hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

// ---- Exporters ---------------------------------------------------------

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "\n    " : ",\n    ");
    os << '"' << JsonEscape(name) << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    os << '"' << JsonEscape(name) << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    os << (first ? "\n    " : ",\n    ");
    os << '"' << JsonEscape(name) << "\": {\"count\": " << hist.count
       << ", \"sum\": " << hist.sum << ", \"max\": " << hist.max
       << ", \"mean\": " << hist.Mean()
       << ", \"p50\": " << hist.ApproxPercentile(0.5)
       << ", \"p99\": " << hist.ApproxPercentile(0.99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      if (!first_bucket) os << ", ";
      os << "{\"lo\": " << HistogramBucketLow(b)
         << ", \"count\": " << hist.buckets[b] << "}";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsSnapshot::WriteCsv(std::ostream& os) const {
  os << "metric,kind,count,sum,mean,max\n";
  for (const auto& [name, value] : counters) {
    os << name << ",counter,," << value << ",,\n";
  }
  for (const auto& [name, value] : gauges) {
    os << name << ",gauge,,,," << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    os << name << ",histogram," << hist.count << "," << hist.sum << ","
       << hist.Mean() << "," << hist.max << "\n";
  }
}

}  // namespace egocensus::obs
