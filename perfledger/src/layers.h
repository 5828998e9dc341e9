#ifndef PERFLEDGER_LAYERS_H_
#define PERFLEDGER_LAYERS_H_

// In-process replay of a workload's distinct inputs through the public
// functions of each module (graph, lang, match, census, fastpath, dynamic,
// net), each call wrapped in a span, for the per-layer metrics.

#include <map>

#include "inputs.h"
#include "net/frame.h"
#include "report.h"

namespace ledger {

/// Adds the graph.*, lang.*, match.*, census.*, fastpath.* and dynamic.*
/// metrics of `inputs` to `result`, recording spans into `spans`. Returns
/// the in-process execution time (ms) of each replayed pool entry, by index.
std::map<std::size_t, double> MeasureLayers(const Inputs& inputs,
                                            SpanRecorder* spans,
                                            RunResult* result);

/// Median time to encode and to decode a request/response frame pair, in
/// microseconds, over the given pairs.
struct CodecTimes {
  double encode_us = 0;
  double decode_us = 0;
};
CodecTimes MeasureFrameCodec(
    const std::vector<std::pair<egocensus::net::Message,
                                egocensus::net::Message>>& exchanges,
    SpanRecorder* spans);

}  // namespace ledger

#endif  // PERFLEDGER_LAYERS_H_
