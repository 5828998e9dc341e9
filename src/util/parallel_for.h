#ifndef EGOCENSUS_UTIL_PARALLEL_FOR_H_
#define EGOCENSUS_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace egocensus {

class Governor;  // exec/governor.h; forward-declared to keep util -> exec
                 // out of this header (parallel_for.cc includes it).

/// fn(chunk_begin, chunk_end, worker): processes [chunk_begin, chunk_end)
/// on the worker with the given rank.
using ChunkFn = std::function<void(std::size_t, std::size_t, unsigned)>;

/// Runs fn over [begin, end) cut into chunks of at most `grain` items, on
/// min(workers, chunks) workers, and returns once every chunk has run.
/// Built for the census engines' fan-out shape: one call per counting loop
/// over focal nodes / matches / clusters, with highly skewed per-item cost
/// (hub neighborhoods are orders of magnitude larger than leaf ones).
///
/// Threads live for the one call: the caller runs as worker 0, the call
/// starts the other min(workers, chunks) - 1 as threads and joins them
/// before it returns, so the join is the happens-before edge that makes
/// per-worker scratch safe to read afterwards. One worker (or a
/// range of one chunk) runs fn(begin, end, 0) inline and starts nothing.
/// Worker ranks lie in [0, workers), which is what engines size their
/// per-worker scratch by. Calls share no state, so any number may run at
/// once, from any threads.
///
/// Scheduling: the chunks are partitioned contiguously across the workers,
/// and each worker drains its own partition through a private atomic
/// cursor, then steals the remaining chunks from the other workers'
/// cursors. The only cross-thread traffic on the happy path is one relaxed
/// fetch_add per chunk.
///
/// Governed: every worker re-checks governor->stopped() before popping its
/// next chunk (own or stolen), so one worker tripping the governor stops
/// the siblings at their next chunk boundary; remaining chunks are
/// skipped, never run. Chunk functions should still checkpoint internally
/// if a single chunk can run long. A null governor never stops.
///
/// Determinism contract: no ordering promises. Callers that need results
/// independent of the worker count write to disjoint locations (e.g.
/// counts[n] for distinct focal n) or accumulate into per-worker scratch
/// indexed by `worker` and merge with an order-insensitive reduction
/// (integer sums, maxes). All census engines do; see docs/PARALLEL.md.
///
/// fn must not throw: engines report failures through Status values
/// computed before the parallel section, and an exception escaping a
/// worker would terminate.
void ParallelFor(unsigned workers, std::size_t begin, std::size_t end,
                 std::size_t grain, const Governor* governor,
                 const ChunkFn& fn);

/// std::thread::hardware_concurrency with a floor of 1.
unsigned HardwareThreads();

/// Maps CensusOptions::num_threads to a worker count: 0 selects
/// HardwareThreads(), anything else is taken verbatim (so tests can run
/// 8 workers on a 1-core machine to widen interleavings under TSan).
unsigned ResolveNumThreads(std::uint32_t requested);

}  // namespace egocensus

#endif  // EGOCENSUS_UTIL_PARALLEL_FOR_H_
