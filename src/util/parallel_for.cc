#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "exec/failpoints.h"
#include "exec/governor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace egocensus {

namespace {

// One cache line per cursor: workers poll each other's cursors while
// stealing, and sharing a line would turn every chunk pop into cross-core
// traffic.
struct alignas(64) Cursor {
  std::atomic<std::size_t> next{0};  // next chunk index in this partition
  std::size_t limit = 0;             // one past the partition's last chunk
};

}  // namespace

unsigned HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned ResolveNumThreads(std::uint32_t requested) {
  return requested == 0 ? HardwareThreads() : requested;
}

void ParallelFor(unsigned workers, std::size_t begin, std::size_t end,
                 std::size_t grain, const Governor* governor,
                 const ChunkFn& fn) {
  if (end <= begin) return;
  if (governor != nullptr && governor->stopped()) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;
  const auto ranks =
      static_cast<unsigned>(std::min<std::size_t>(workers, num_chunks));
  if (ranks <= 1) {
    fn(begin, end, 0);
    return;
  }

  // Contiguous chunk partitions: worker w owns
  // [w * num_chunks / ranks, (w + 1) * num_chunks / ranks).
  std::vector<Cursor> cursors(ranks);
  for (unsigned w = 0; w < ranks; ++w) {
    cursors[w].next.store(num_chunks * w / ranks, std::memory_order_relaxed);
    cursors[w].limit = num_chunks * (w + 1) / ranks;
  }

  auto run_worker = [&](unsigned rank) {
    // One span per worker: the trace timeline shows each worker's busy
    // interval on its own tid row, with the chunk tally as the arg, so
    // imbalance and steal activity are visible at a glance.
    obs::ScopedSpan worker_span("pool/worker");
    std::uint64_t own_chunks = 0;
    std::uint64_t stolen_chunks = 0;
    // Own partition first, then steal from the others in rank order. A
    // fetch_add that lands at or past the partition limit means the
    // partition is drained.
    for (unsigned offset = 0; offset < ranks; ++offset) {
      Cursor& cursor = cursors[(rank + offset) % ranks];
      for (;;) {
        // Per-chunk stop check: the pop itself is what propagates a
        // sibling's stop, so a stopped governor stops every worker at its
        // next chunk boundary without running the chunk.
        if (governor != nullptr && governor->stopped()) return;
        const std::size_t chunk =
            cursor.next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= cursor.limit) break;
        EGO_FAILPOINT("pool/chunk");
        const std::size_t lo = begin + chunk * grain;
        fn(lo, std::min(end, lo + grain), rank);
        ++(offset == 0 ? own_chunks : stolen_chunks);
      }
    }
    if (obs::Enabled()) {
      worker_span.SetArg(own_chunks + stolen_chunks);
      obs::CounterAdd("pool/chunks_own", own_chunks);
      obs::CounterAdd("pool/chunks_stolen", stolen_chunks);
      obs::HistogramRecord("pool/chunks_per_worker",
                           own_chunks + stolen_chunks);
    }
  };

  // A jthread joins on destruction, so every worker is joined before the
  // cursors it reads go away, on every path out of this call.
  std::vector<std::jthread> threads;
  threads.reserve(ranks - 1);
  for (unsigned rank = 1; rank < ranks; ++rank) {
    threads.emplace_back(run_worker, rank);
  }
  run_worker(0);
}

}  // namespace egocensus
