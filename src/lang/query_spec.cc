#include "lang/query_spec.h"

#include <utility>

#include "util/strings.h"

namespace egocensus {

namespace {

/// Largest deadline_ms / memory_budget_mb (~49 days, 4 PiB): small enough
/// that the microsecond and byte conversions downstream cannot wrap.
constexpr std::uint64_t kMaxLimit = 0xFFFFFFFFull;

/// Unsigned value in [0, max]; empty keeps `*out`.
[[nodiscard]] Status Count(std::string_view value, std::uint64_t max,
                           std::uint64_t* out) {
  if (value.empty()) return Status::Ok();
  auto parsed = ParseUint(value, max);
  if (!parsed.ok()) {
    std::string range = max == ~0ull ? "an unsigned integer"
                                     : "an integer in [0, " +
                                           std::to_string(max) + "]";
    return Status::InvalidArgument("expected " + range + ", got '" +
                                   std::string(value) + "'");
  }
  *out = *parsed;
  return Status::Ok();
}

/// Case-insensitive pick among `choices`; empty keeps `*out`.
template <typename T, std::size_t N>
[[nodiscard]] Status Choice(std::string_view value,
                            const std::pair<const char*, T> (&choices)[N],
                            T* out) {
  if (value.empty()) return Status::Ok();
  std::string expected;
  for (const auto& [name, choice] : choices) {
    if (EqualsIgnoreCase(value, name)) {
      *out = choice;
      return Status::Ok();
    }
    expected += (expected.empty() ? "" : ", ") + std::string(name);
  }
  return Status::InvalidArgument("expected one of " + expected + ", got '" +
                                 std::string(value) + "'");
}

constexpr std::pair<const char*, CensusAlgorithm> kAlgorithms[] = {
    {"nd-bas", CensusAlgorithm::kNdBas},  {"nd-pvot", CensusAlgorithm::kNdPvot},
    {"nd-diff", CensusAlgorithm::kNdDiff}, {"pt-bas", CensusAlgorithm::kPtBas},
    {"pt-opt", CensusAlgorithm::kPtOpt},  {"pt-rnd", CensusAlgorithm::kPtRnd}};
constexpr std::pair<const char*, bool> kGqlMatcher[] = {{"cn", false},
                                                        {"gql", true}};
constexpr std::pair<const char*, FastPathMode> kFastPaths[] = {
    {"auto", FastPathMode::kAuto},
    {"force", FastPathMode::kForce},
    {"off", FastPathMode::kOff}};
constexpr std::pair<const char*, ResultFormat> kFormats[] = {
    {"csv", ResultFormat::kCsv}, {"text", ResultFormat::kText}};

constexpr QueryOption kOptions[] = {
    // Picking an engine pins the fast path off, so the engine asked for is
    // the one that runs; fast_path parses later and can still override.
    {"algorithm", "algorithm", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       if (!value.empty()) {
         spec->options.auto_algorithm = false;
         spec->options.census.fast_path = FastPathMode::kOff;
       }
       return Choice(value, kAlgorithms, &spec->options.census.algorithm);
     }},
    {"matcher", "matcher", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       if (!value.empty()) spec->options.census.fast_path = FastPathMode::kOff;
       return Choice(value, kGqlMatcher, &spec->options.census.use_gql_matcher);
     }},
    {"fast-path", "fast_path", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       return Choice(value, kFastPaths, &spec->options.census.fast_path);
     }},
    {"threads", "threads", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       std::uint64_t threads = 1;
       Status parsed = Count(value, kMaxQueryThreads, &threads);
       spec->options.census.num_threads = static_cast<std::uint32_t>(threads);
       return parsed;
     }},
    {"seed", "seed", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       return Count(value, ~0ull, &spec->options.rnd_seed);
     }},
    {"timeout-ms", "deadline_ms", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       return Count(value, kMaxLimit, &spec->deadline_ms);
     }},
    {"memory-budget-mb", "memory_budget_mb", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       return Count(value, kMaxLimit, &spec->memory_budget_mb);
     }},
    {"degrade-approx", "degrade_approx", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       auto rate = value.empty() ? Result<double>(0.1) : ParseDouble(value);
       if (!rate.ok() || !(*rate > 0.0 && *rate <= 1.0)) {
         return Status::InvalidArgument("expected a rate in (0, 1], got '" +
                                        std::string(value) + "'");
       }
       spec->options.census.degrade_to_approx = true;
       spec->options.census.degrade_sample_rate = *rate;
       return Status::Ok();
     }},
    {"top", "top", nullptr,
     [](std::string_view value, QuerySpec* spec) {
       spec->top = 20;
       return Count(value, ~0ull, &*spec->top);
     }},
    {"csv", "format", "text",
     [](std::string_view value, QuerySpec* spec) {
       spec->format = ResultFormat::kCsv;
       return Choice(value, kFormats, &spec->format);
     }},
};

}  // namespace

std::span<const QueryOption> QueryOptions() { return kOptions; }

[[nodiscard]] Result<QuerySpec> ParseQuerySpec(
    const std::map<std::string, std::string>& values, OptionSurface surface) {
  const bool cli = surface == OptionSurface::kCli;
  QuerySpec spec;
  for (const QueryOption& option : kOptions) {
    auto it = values.find(cli ? option.flag : option.header);
    if (it == values.end() && !(cli && option.cli_absent != nullptr)) continue;
    Status parsed = option.parse(
        it != values.end() ? it->second : option.cli_absent, &spec);
    if (!parsed.ok()) {
      std::string name = cli ? std::string("--") + option.flag : option.header;
      return Status::InvalidArgument(name + ": " + parsed.message());
    }
  }
  return spec;
}

void ForwardQueryOptions(const std::map<std::string, std::string>& flags,
                         std::map<std::string, std::string>* headers) {
  for (const QueryOption& option : kOptions) {
    auto it = flags.find(option.flag);
    if (it != flags.end()) {
      (*headers)[option.header] = it->second;
    } else if (option.cli_absent != nullptr) {
      (*headers)[option.header] = option.cli_absent;
    }
  }
}

void WriteQueryResult(ResultTable& table, const QuerySpec& spec,
                      std::ostream& os) {
  if (spec.top.has_value()) {
    std::size_t cols = table.NumColumns();
    while (cols > 0 && EndsWith(table.columns()[cols - 1], ".state")) --cols;
    if (cols >= 2) table.SortByColumnDesc(cols - 1);
  }
  if (spec.format == ResultFormat::kCsv) {
    table.WriteCsv(os);
  } else {
    os << table.ToString(spec.top.value_or(table.NumRows()));
  }
}

}  // namespace egocensus
