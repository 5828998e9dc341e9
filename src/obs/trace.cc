#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace egocensus::obs {

struct Tracer::Impl {
  /// One thread's span buffer. The owning thread appends without the lock
  /// (thread-local sharding is the point); `mu` covers the buffer list and
  /// the retired accumulator, plus span reads during Snapshot.
  struct Buffer {
    std::vector<SpanRecord> spans;
  };

  mutable Mutex mu;
  std::vector<Buffer*> live EGO_GUARDED_BY(mu);
  std::vector<SpanRecord> retired EGO_GUARDED_BY(mu);
  std::atomic<std::uint32_t> next_tid{0};
  /// Spans held plus refusals in flight; never above kMaxSpans once the
  /// refusals back out, so the spans held never exceed the cap.
  std::atomic<std::size_t> held{0};

  Buffer* ThisBuffer();
  void Retire(Buffer* buffer);
};

namespace {

struct BufferOwner {
  Tracer::Impl* impl = nullptr;
  Tracer::Impl::Buffer* buffer = nullptr;
  ~BufferOwner() {
    if (impl != nullptr && buffer != nullptr) impl->Retire(buffer);
  }
};

}  // namespace

Tracer::Impl::Buffer* Tracer::Impl::ThisBuffer() {
  thread_local BufferOwner owner;
  if (owner.buffer == nullptr) {
    auto* buffer = new Buffer();
    {
      MutexLock lock(mu);
      live.push_back(buffer);
    }
    owner.impl = this;
    owner.buffer = buffer;
  }
  return owner.buffer;
}

void Tracer::Impl::Retire(Buffer* buffer) {
  MutexLock lock(mu);
  retired.insert(retired.end(), buffer->spans.begin(), buffer->spans.end());
  live.erase(std::remove(live.begin(), live.end(), buffer), live.end());
  delete buffer;
}

Tracer::Tracer() : impl_(new Impl()) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked, see header
  return *tracer;
}

std::uint32_t Tracer::CurrentThreadId() {
  thread_local std::uint32_t tid =
      Global().impl_->next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void Tracer::Record(const char* name, std::uint64_t begin_us,
                    std::uint64_t end_us, std::uint64_t arg, bool has_arg) {
  if (impl_->held.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    impl_->held.fetch_sub(1, std::memory_order_relaxed);
    // Counted even if recording was switched off after the span began, so
    // the counter equals the spans refused.
    static const std::uint32_t dropped =
        Registry::Global().InternCounter("obs/trace/dropped_spans");
    Registry::Global().CounterAdd(dropped, 1);
    return;
  }
  SpanRecord record;
  record.name = name;
  record.begin_us = begin_us;
  record.dur_us = end_us >= begin_us ? end_us - begin_us : 0;
  record.tid = CurrentThreadId();
  record.arg = arg;
  record.has_arg = has_arg;
  impl_->ThisBuffer()->spans.push_back(record);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  MutexLock lock(impl_->mu);
  std::vector<SpanRecord> spans = impl_->retired;
  for (const Impl::Buffer* buffer : impl_->live) {
    spans.insert(spans.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return spans;
}

std::uint64_t Tracer::Dropped() {
  const MetricsSnapshot snap = Registry::Global().Snapshot();
  auto it = snap.counters.find("obs/trace/dropped_spans");
  return it == snap.counters.end() ? 0 : it->second;
}

void Tracer::Reset() {
  MutexLock lock(impl_->mu);
  impl_->retired.clear();
  for (Impl::Buffer* buffer : impl_->live) buffer->spans.clear();
  impl_->held.store(0, std::memory_order_relaxed);
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  std::vector<SpanRecord> spans = Snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.begin_us < b.begin_us;
            });
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().begin_us;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& span : spans) {
    os << (first ? "\n" : ",\n");
    os << "{\"name\": \"" << span.name
       << "\", \"cat\": \"egocensus\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << span.tid << ", \"ts\": " << (span.begin_us - t0)
       << ", \"dur\": " << span.dur_us;
    if (span.has_arg) os << ", \"args\": {\"value\": " << span.arg << "}";
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace egocensus::obs
