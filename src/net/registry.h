#ifndef EGOCENSUS_NET_REGISTRY_H_
#define EGOCENSUS_NET_REGISTRY_H_

// Named registry of resident graphs — the state the daemon exists to keep
// warm. Each entry holds one copy of the graph: the DynamicGraph, whose
// compacted CSR base is what queries read, and the pre-built GraphIndexes
// over that base, so a QUERY costs zero load/index work (the 10x the bench
// measures against per-process execution).
//
// Locking, two levels:
//  * The registry map itself is guarded by a plain Mutex held only for
//    lookup/insert/erase — never across a census.
//  * Each entry carries a SharedMutex: QUERY holds it shared for the
//    whole census (any number in parallel), UPDATE holds it exclusive while
//    mutating + compacting + re-indexing. UPDATE therefore serializes
//    against in-flight QUERYs per graph and queries never observe a
//    half-applied batch.
//
// Entries are handed out as shared_ptr, so UNLOAD only removes the name:
// requests already inside the entry finish against the old graph and the
// memory dies with the last reference.
//
// Both levels are compile-time contracts: the mutexes are the annotated
// util/mutex.h capabilities and every guarded field carries EGO_GUARDED_BY,
// so a QUERY path touching the graph without the entry lock fails the
// clang -Werror=thread-safety build (docs/STATIC_ANALYSIS.md).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "lang/engine.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace egocensus::net {

/// One resident graph. Fields guarded by `mutex` as annotated; `name` is
/// immutable after construction.
struct GraphEntry {
  // egolint: no-guard(immutable after construction, read lock-free)
  std::string name;

  /// Guards the graph state below: shared for QUERY, exclusive for UPDATE.
  SharedMutex mutex;

  /// The graph. Outside an UPDATE its delta is empty: an UPDATE that
  /// applied anything compacts it and rebuilds `indexes` over the new
  /// base, so QueryEngines borrow base() and `indexes` for the duration of
  /// a shared lock.
  DynamicGraph dynamic EGO_GUARDED_BY(mutex);
  GraphIndexes indexes EGO_GUARDED_BY(mutex);

  /// Monotone update-batch counter (0 = as loaded).
  std::uint64_t updates_applied EGO_GUARDED_BY(mutex) = 0;

  /// Fast-path routing outcomes per census aggregate served against this
  /// graph (docs/FAST_PATH.md). Atomic, not mutex-guarded: concurrent
  /// QUERYs hold the lock shared and increment these in parallel.
  std::atomic<std::uint64_t> fastpath_routed{0};
  std::atomic<std::uint64_t> fastpath_generic{0};

  GraphEntry(std::string graph_name, Graph loaded)
      : name(std::move(graph_name)), dynamic(std::move(loaded)) {
    // No other thread can reach the entry during construction, so the
    // indexes are built without the lock.
    indexes = GraphIndexes::Build(dynamic.base());
  }
};

/// Summary row for STATUS.
struct GraphSummary {
  std::string name;
  std::uint32_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t version = 0;          // DynamicGraph mutation counter
  std::uint64_t updates_applied = 0;  // applied UPDATE batches
  std::uint64_t fastpath_routed = 0;  // aggregates taken by the fast path
  std::uint64_t fastpath_generic = 0;  // aggregates run by a generic engine
};

class GraphRegistry {
 public:
  /// Loads `path` and registers it as `name`. Fails with kInvalidArgument
  /// if the name is taken (unload first; silent replacement would yank a
  /// graph out from under concurrent clients by surprise).
  [[nodiscard]] Status LoadFromFile(const std::string& name,
                                    const std::string& path);

  /// Registers an already-built graph (tests, bench).
  [[nodiscard]] Status Add(const std::string& name, Graph graph);

  /// Removes `name` from the registry. In-flight requests holding the
  /// entry finish normally.
  [[nodiscard]] Status Unload(const std::string& name);

  /// Looks up `name`. kNotFound names the known graphs so clients can
  /// self-diagnose a typo from the error alone.
  [[nodiscard]] Result<std::shared_ptr<GraphEntry>> Get(
      const std::string& name) const;

  /// Snapshot of every entry (locks each entry shared, briefly).
  std::vector<GraphSummary> Summaries() const;

  std::size_t size() const;

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<GraphEntry>> entries_
      EGO_GUARDED_BY(mutex_);
};

}  // namespace egocensus::net

#endif  // EGOCENSUS_NET_REGISTRY_H_
