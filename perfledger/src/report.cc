#include "report.h"

#include <algorithm>
#include <numeric>

#include "util/strings.h"
#include "util/timer.h"

namespace ledger {

void RunResult::Fail(const std::string& reason) {
  ++failed;
  correct = false;
  if (std::find(notes.begin(), notes.end(), reason) == notes.end() &&
      notes.size() < 32) {
    notes.push_back(reason);
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::size_t CountBeyond(const std::vector<double>& values, double q) {
  double cut = Quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v >= cut; }));
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::size_t SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

std::size_t SpanRecorder::Begin(std::string name, std::size_t parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start_us = egocensus::Timer::NowMicros();
  return Record(std::move(span));
}

void SpanRecorder::End(std::size_t id) {
  std::uint64_t now = egocensus::Timer::NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_us = now;
}

void SpanRecorder::WriteChromeTrace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t origin = UINT64_MAX;
  for (const Span& span : spans_) origin = std::min(origin, span.start_us);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << egocensus::JsonEscape(span.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.lane
       << ",\"ts\":" << span.start_us - origin
       << ",\"dur\":"
       << (span.end_us > span.start_us ? span.end_us - span.start_us : 0)
       << ",\"args\":{\"id\":" << i;
    if (span.parent != kNoParent) os << ",\"parent\":" << span.parent;
    if (!span.request_id.empty()) {
      os << ",\"request_id\":\"" << egocensus::JsonEscape(span.request_id)
         << "\"";
    }
    os << "}}";
  }
  os << "]}\n";
}

}  // namespace ledger
