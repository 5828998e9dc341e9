#ifndef PERFLEDGER_REPORT_H_
#define PERFLEDGER_REPORT_H_

// What one workload run reports — metrics, counts, and the driver's own
// span trace — plus the order statistics every metric is computed with.

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ledger {

/// One named measurement with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// The outcome of one workload run: the result line's fields, the metrics
/// it prints, and detail rows that only the ledger file records.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Detail(std::string name, double value, std::string unit,
              std::uint64_t samples) {
    detail.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Records a failed operation with the reason, once per distinct reason.
  void Fail(const std::string& reason);
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Values at or above the q-quantile: the samples "beyond" a percentile.
std::size_t CountBeyond(const std::vector<double>& values, double q);

/// 64-bit FNV-1a, the digest response bodies are compared by.
std::uint64_t Fnv1a(const std::string& bytes);

/// Spans the driver records around its calls into each layer, kept in
/// memory and written out as a Chrome trace when the run ends.
class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::size_t parent = kNoParent;
    std::string request_id;
    std::uint32_t lane = 0;  // Chrome trace "tid": one lane per client
  };

  /// Records a finished span and returns its id. Thread-safe.
  std::size_t Record(Span span);

  /// Opens a span starting now; End closes it. Thread-safe.
  std::size_t Begin(std::string name, std::size_t parent = kNoParent);
  void End(std::size_t id);

  /// Chrome trace_event JSON (complete "X" events; parent and request id
  /// ride in args).
  void WriteChromeTrace(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one in-process layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name,
             std::size_t parent = SpanRecorder::kNoParent)
      : recorder_(recorder), id_(recorder->Begin(std::move(name), parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

}  // namespace ledger

#endif  // PERFLEDGER_REPORT_H_
