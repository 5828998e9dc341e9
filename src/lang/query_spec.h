#ifndef EGOCENSUS_LANG_QUERY_SPEC_H_
#define EGOCENSUS_LANG_QUERY_SPEC_H_

// A census query's request options, parsed and rendered in one place.
// `ecensus query` flags (`--threads 4`) and ecensusd QUERY headers
// (`threads: 4`) spell the same options, so one table lists each option
// once with both names and the only parser for its value: a value means
// the same on both surfaces, and a malformed or out-of-range one is
// INVALID_ARGUMENT naming the option on both. docs/SERVER.md lists the
// wire names; engine_test checks that list against the table.

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "lang/engine.h"
#include "lang/result_table.h"
#include "util/status.h"

namespace egocensus {

/// Largest worker count a request may ask for (`threads`, `--threads`).
inline constexpr std::uint64_t kMaxQueryThreads = 256;

enum class ResultFormat : std::uint8_t { kCsv, kText };

/// Everything a census request asks for besides its query text.
struct QuerySpec {
  QueryEngine::Options options;
  std::uint64_t deadline_ms = 0;       ///< 0 = no deadline
  std::uint64_t memory_budget_mb = 0;  ///< 0 = no budget
  std::optional<std::uint64_t> top;    ///< see WriteQueryResult
  ResultFormat format = ResultFormat::kCsv;
};

enum class OptionSurface : std::uint8_t { kCli, kWire };

/// One request option. An empty value means the documented default.
struct QueryOption {
  const char* flag;    ///< CLI flag, without the leading "--"
  const char* header;  ///< QUERY header
  /// The value an absent CLI flag stands for, when it differs from an
  /// absent header (else nullptr): the CLI prints text, the wire csv.
  const char* cli_absent;
  Status (*parse)(std::string_view value, QuerySpec* spec);
};

/// The option table, in parse order.
std::span<const QueryOption> QueryOptions();

/// Parses `values`, keyed by flag on kCli and by header on kWire. Other
/// keys (the CLI's remaining flags, the graph/tenant/request_id headers)
/// are ignored.
[[nodiscard]] Result<QuerySpec> ParseQuerySpec(
    const std::map<std::string, std::string>& values, OptionSurface surface);

/// Copies the option strings among CLI `flags` into `headers` under their
/// wire names, so the daemon parses exactly what the CLI validated.
void ForwardQueryOptions(const std::map<std::string, std::string>& flags,
                         std::map<std::string, std::string>* headers);

/// Renders `table` as csv or text. With `top`, rows first sort descending
/// on the last count column (an interrupted run's trailing `.state`
/// columns never sort), and text stops after `top` rows; csv keeps all.
void WriteQueryResult(ResultTable& table, const QuerySpec& spec,
                      std::ostream& os);

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_QUERY_SPEC_H_
