#ifndef EGOCENSUS_SRC_OBS_PROMETHEUS_H_
#define EGOCENSUS_SRC_OBS_PROMETHEUS_H_

// Prometheus text exposition (format v0.0.4) for a MetricsSnapshot, the
// body of the daemon's METRICS frame (docs/SERVER.md) and of
// `ecensus remote metrics`.
//
// The registry stays flat and label-free on the hot path; labels ride in
// the metric *name* using the convention `base{key="value",...}` (build
// such names with LabeledName, which escapes the values). The renderer
// splits the name back apart, sanitizes the base into a legal Prometheus
// metric name under the `egocensus_` prefix, and re-emits the label block
// verbatim — so `server/latency_us{graph="g",verb="QUERY"}` becomes the
// family `egocensus_server_latency_us{graph="g",verb="QUERY"}`.
//
// Mapping: counters render as `<name>_total` counter families, gauges as
// gauge families, and the log2 histograms as histogram families with
// cumulative `_bucket{le="..."}` samples (bucket b >= 1 covers
// [2^(b-1), 2^b), so its inclusive upper bound is 2^b - 1; bucket 0 is
// le="0"), a `+Inf` bucket, `_sum`, and `_count`.
//
// Pure rendering of a by-value snapshot: no registry access, no locks —
// Registry::Snapshot() already merges shards without stopping recording
// threads, so exposition never stops the world.

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace egocensus::obs {

/// `base{k1="v1",k2="v2"}` with label values escaped for the exposition
/// format (backslash, double quote, newline). Empty label list = `base`.
std::string LabeledName(
    std::string_view base,
    const std::vector<std::pair<std::string_view, std::string_view>>& labels);

/// Escapes one label value (the rules LabeledName applies).
std::string PromEscapeLabelValue(std::string_view value);

/// Renders the whole snapshot as text exposition v0.0.4.
void WritePrometheus(const MetricsSnapshot& snapshot, std::ostream& os);

}  // namespace egocensus::obs

#endif  // EGOCENSUS_SRC_OBS_PROMETHEUS_H_
