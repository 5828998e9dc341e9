#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <latch>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "graph/graph.h"
#include "lang/engine.h"
#include "layers.h"
#include "net/client.h"
#include "process.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ledger {

using namespace egocensus;

namespace {

// A daemon's set-up is timed this many times per run, about half before the
// traffic window and the rest after it, and reported as the median. A
// 10K-node daemon starts in 31-48 ms (p5 to p95) on a shared 4-vCPU VM,
// whose slow phases last seconds to minutes: a median of 7 back-to-back
// starts spread 0.13-0.32 (IQR over median) from run to run, a median of
// these 41 0.06-0.20.
constexpr int kSetupRepetitions = 41;
// An open-loop request still unanswered this long after the window ends
// has failed.
constexpr std::uint64_t kGraceUs = 10'000'000;
// A closed-loop call still unanswered after this long has failed.
constexpr int kCallTimeoutMs = 60'000;

// update_mix traffic: three query connections at 20/s each, one update
// connection at 5/s. An UPDATE holds the 10K-node graph exclusively for
// ~20 ms, so about a tenth of the queries wait behind one: the median
// request is an unblocked query, and the tail is where the UPDATEs sit.
// (With half of them waiting, the median would flip between the two from
// run to run.)
constexpr int kQueryConnections = 3;
constexpr std::uint64_t kQueryPeriodUs = 50'000;
constexpr std::uint64_t kUpdatePeriodUs = 200'000;

/// The percentile `tail_ms` reports per workload. Each keeps at least ten
/// samples beyond it in a default-length window, and is chosen for a steady
/// value from run to run rather than as the highest such percentile: over
/// ten 30 s runs of each, ego_drilldown's p98 spread 0.12 (IQR over median)
/// and its p95 0.06. update_mix's p95 falls where the queries that waited
/// behind an UPDATE give way to the UPDATEs themselves, and it spread 0.10;
/// its p98 lies among the UPDATEs, and spread 0.06.
double TailQuantile(Workload workload) {
  return workload == Workload::kUpdateMix ? 0.98 : 0.95;
}

/// One request the driver sent (or was due to send) and what came back.
struct Op {
  bool is_update = false;
  std::size_t index = 0;       // into Inputs::pool or Inputs::updates
  std::uint64_t due_us = 0;    // open loop: when it was due to be sent
  std::uint64_t prev_us = 0;   // the connection's previous response
  std::uint64_t send_us = 0;
  std::uint64_t recv_us = 0;
  int lane = 0;
  std::string request_id;
  bool sent = false;
  bool transport_ok = false;
  net::FrameType type = net::FrameType::kError;
  std::string exec_status;
  std::uint64_t version = 0;
  std::uint64_t applied = 0;
  std::size_t response_bytes = 0;
  std::uint64_t digest = 0;
  std::string error;
  bool ok = false;  // set by Verify

  double LatencyMs(bool open_loop) const {
    return static_cast<double>(recv_us - (open_loop ? due_us : send_us)) / 1e3;
  }
  double LateMs() const {
    std::uint64_t ready = std::max(due_us, prev_us);
    return send_us > ready ? static_cast<double>(send_us - ready) / 1e3 : 0.0;
  }
};

struct Traffic {
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::vector<Op> ops;     // sent (or due) inside the window
  std::vector<Op> warmup;  // untimed, still verified
  std::vector<Op> final_check;  // update_mix: whole-graph census at the end
  /// First request/response per pool entry, for the frame codec layer.
  std::vector<std::pair<net::Message, net::Message>> exchanges;
};

bool IsOpenLoop(Workload workload) { return workload == Workload::kUpdateMix; }

std::uint64_t TableDigest(const ResultTable& table) {
  std::ostringstream os;
  table.WriteCsv(os);
  return Fnv1a(os.str());
}

net::Message QueryMessage(const std::string& text, std::uint32_t threads) {
  net::Message message = net::Client::QueryRequest("g", text);
  if (threads > 1) message.headers["threads"] = std::to_string(threads);
  return message;
}

/// Sends `request` and records the response into `op`. Returns the
/// response when the transport succeeded.
std::optional<net::Message> Exchange(net::Client* client, net::Message request,
                                     Op* op) {
  request.headers["request_id"] = op->request_id;
  op->sent = true;
  op->send_us = Timer::NowMicros();
  auto response = client->Call(request);
  op->recv_us = Timer::NowMicros();
  if (!response.ok()) {
    op->error = response.status().ToString();
    return std::nullopt;
  }
  op->transport_ok = true;
  op->type = response->type;
  op->exec_status =
      response->Header("exec_status", response->Header("code", "?"));
  op->version = response->HeaderInt("graph_version", ~0ull);
  op->applied = response->HeaderInt("applied", 0);
  op->response_bytes = response->body.size();
  op->digest = Fnv1a(response->body);
  return std::move(*response);
}

/// One client connection that reconnects after a transport failure (a
/// timed-out call leaves the stream mid-frame).
class Connection {
 public:
  Connection(const net::Endpoint& endpoint, int io_timeout_ms)
      : endpoint_(endpoint) {
    options_.io_timeout_ms = io_timeout_ms;
  }

  /// Connects unless connected.
  Status Open() {
    if (client_.has_value()) return Status::Ok();
    auto connected = net::Client::Connect(endpoint_, options_);
    if (!connected.ok()) return connected.status();
    client_.emplace(std::move(*connected));
    return Status::Ok();
  }

  std::optional<net::Message> Send(const net::Message& request, Op* op) {
    Status opened = Open();
    if (!opened.ok()) {
      op->sent = true;
      op->send_us = op->recv_us = Timer::NowMicros();
      op->error = opened.ToString();
      return std::nullopt;
    }
    auto response = Exchange(&*client_, request, op);
    if (!response.has_value()) client_.reset();
    return response;
  }

 private:
  net::Endpoint endpoint_;
  net::Client::Options options_;
  std::optional<net::Client> client_;
};

/// Keeps the first exchange seen per pool index.
class ExchangeKeeper {
 public:
  explicit ExchangeKeeper(bool enabled) : enabled_(enabled) {}
  void Offer(std::size_t index, const net::Message& request,
             const std::optional<net::Message>& response) {
    if (!enabled_ || !response.has_value()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (seen_.insert(index).second) kept_.emplace_back(request, *response);
  }
  std::vector<std::pair<net::Message, net::Message>> Take() {
    return std::move(kept_);
  }

 private:
  bool enabled_;
  std::mutex mu_;
  std::set<std::size_t> seen_;
  std::vector<std::pair<net::Message, net::Message>> kept_;
};

/// Closed loop: `clients` connections, each sending its next QUERY as soon
/// as the previous answer arrives. Each client walks the pool in shuffled
/// rounds, so every template keeps the same share of any window and the
/// median stays inside one template's band (the pools hold an odd number of
/// templates for the same reason).
Traffic RunClosedLoop(const Inputs& in, const net::Endpoint& endpoint,
                      Workload workload, double seconds, std::uint64_t seed,
                      const std::string& tag, bool keep) {
  const int clients = workload == Workload::kEgoDrilldown ? 4 : 1;
  const std::size_t warmup =
      workload == Workload::kFullCensus ? in.pool.size() : 2;
  constexpr std::size_t kSequence = 1 << 14;
  std::vector<std::vector<std::size_t>> sequences(clients);
  Rng rng(seed ^ 0x5eedc0de);
  for (auto& sequence : sequences) {
    std::vector<std::size_t> round(in.pool.size());
    std::iota(round.begin(), round.end(), std::size_t{0});
    while (sequence.size() < kSequence) {
      rng.Shuffle(&round);
      sequence.insert(sequence.end(), round.begin(), round.end());
    }
  }

  Traffic traffic;
  ExchangeKeeper keeper(keep);
  std::vector<std::vector<Op>> timed(clients), warm(clients);
  std::latch warmed(clients);
  std::latch go(1);
  std::atomic<std::uint64_t> end_us{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Connection connection(endpoint, kCallTimeoutMs);
      const std::vector<std::size_t>& sequence = sequences[c];
      std::size_t next = 0;
      std::uint64_t prev_us = 0;
      auto send = [&](std::vector<Op>* out) {
        Op op;
        op.index = sequence[next % sequence.size()];
        op.lane = c;
        op.prev_us = prev_us;
        op.request_id =
            tag + "-" + std::to_string(c) + "-" + std::to_string(next);
        ++next;
        net::Message request = QueryMessage(in.pool[op.index].text, in.threads);
        keeper.Offer(op.index, request, connection.Send(request, &op));
        prev_us = op.recv_us;
        out->push_back(std::move(op));
      };
      for (std::size_t i = 0; i < warmup; ++i) send(&warm[c]);
      warmed.count_down();
      go.wait();
      prev_us = 0;
      while (Timer::NowMicros() < end_us.load()) send(&timed[c]);
    });
  }
  warmed.wait();
  traffic.start_us = Timer::NowMicros();
  traffic.end_us = traffic.start_us + static_cast<std::uint64_t>(seconds * 1e6);
  end_us.store(traffic.end_us);
  go.count_down();
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < clients; ++c) {
    traffic.ops.insert(traffic.ops.end(), timed[c].begin(), timed[c].end());
    traffic.warmup.insert(traffic.warmup.end(), warm[c].begin(), warm[c].end());
  }
  traffic.exchanges = keeper.Take();
  return traffic;
}

/// update_mix's closing check: a whole-graph triangle census.
std::string FinalQueryText(const Inputs& in) {
  const NodeId n = in.graph.NumNodes();
  return CountQuery(kTriangle, 1, 0, n, n);
}

/// Open loop (update_mix): requests are sent on a fixed schedule whatever
/// the daemon's state, and timed from when they were due.
Traffic RunOpenLoop(const Inputs& in, const net::Endpoint& endpoint,
                    double seconds, std::uint64_t seed, const std::string& tag,
                    bool keep) {
  Traffic traffic;
  ExchangeKeeper keeper(keep);
  const auto window = static_cast<std::uint64_t>(seconds * 1e6);
  const int lanes = kQueryConnections + 1;  // the last lane sends updates
  std::vector<std::vector<Op>> timed(lanes), warm(lanes);

  // Warm-up: one query per query connection, before any update. (A failed
  // connect here fails again, and is counted, at the lane's first send.)
  std::vector<std::unique_ptr<Connection>> connections;
  for (int lane = 0; lane < lanes; ++lane) {
    connections.push_back(std::make_unique<Connection>(
        endpoint, static_cast<int>(kGraceUs / 1000)));
    (void)connections.back()->Open();
  }
  for (int lane = 0; lane < kQueryConnections; ++lane) {
    Op op;
    op.index = static_cast<std::size_t>(lane) % in.pool.size();
    op.request_id = tag + "-w" + std::to_string(lane);
    connections[lane]->Send(QueryMessage(in.pool[op.index].text, 1), &op);
    warm[lane].push_back(std::move(op));
  }

  traffic.start_us = Timer::NowMicros() + 50'000;
  traffic.end_us = traffic.start_us + window;
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      const bool updates = lane == kQueryConnections;
      const std::uint64_t period = updates ? kUpdatePeriodUs : kQueryPeriodUs;
      const std::uint64_t phase =
          updates ? 0
                  : static_cast<std::uint64_t>(lane) * kQueryPeriodUs /
                        kQueryConnections;
      Rng rng(seed + 977 * static_cast<std::uint64_t>(lane + 1));
      std::uint64_t prev_us = 0;
      for (std::size_t j = 0;; ++j) {
        Op op;
        op.is_update = updates;
        op.lane = lane;
        op.due_us = traffic.start_us + phase + j * period;
        if (op.due_us >= traffic.end_us) break;
        op.index = updates ? j : rng.NextBounded(in.pool.size());
        if (updates && j >= in.updates.size()) break;
        op.request_id =
            tag + "-" + std::to_string(lane) + "-" + std::to_string(j);
        if (Timer::NowMicros() > traffic.end_us + kGraceUs) {
          op.error = "not sent by window end + grace";
          timed[lane].push_back(std::move(op));
          continue;
        }
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::microseconds(op.due_us)));
        op.prev_us = prev_us;
        net::Message request =
            updates ? net::Client::UpdateRequest("g", UpdateText(in.updates[j]))
                    : QueryMessage(in.pool[op.index].text, 1);
        auto response = connections[lane]->Send(request, &op);
        if (!updates) keeper.Offer(op.index, request, response);
        prev_us = op.recv_us;
        timed[lane].push_back(std::move(op));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int lane = 0; lane < lanes; ++lane) {
    traffic.ops.insert(traffic.ops.end(), timed[lane].begin(),
                       timed[lane].end());
    traffic.warmup.insert(traffic.warmup.end(), warm[lane].begin(),
                          warm[lane].end());
  }
  traffic.exchanges = keeper.Take();

  // Whole-graph triangle census after the stream, checked against a replica.
  Op final_op;
  final_op.request_id = tag + "-final";
  final_op.index = in.pool.size();  // the final query is not in the pool
  Connection check(endpoint, kCallTimeoutMs);
  check.Send(QueryMessage(FinalQueryText(in), 4), &final_op);
  traffic.final_check.push_back(std::move(final_op));
  return traffic;
}

/// Reference digests of the pool on the graph as generated, computed
/// in-process with QueryEngine over shared indexes, as the daemon runs it.
Result<std::vector<std::uint64_t>> PoolDigests(const Inputs& in) {
  GraphIndexes indexes = GraphIndexes::Build(in.graph);
  std::vector<std::uint64_t> digests(in.pool.size());
  std::vector<Status> errors(in.pool.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers = in.threads > 1 ? 1 : 4;
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      QueryEngine engine(in.graph, &indexes);
      QueryEngine::Options options;
      options.census.num_threads = in.threads;
      for (std::size_t i = next++; i < in.pool.size(); i = next++) {
        auto table = engine.Execute(in.pool[i].text, options);
        if (!table.ok()) {
          errors[i] = table.status();
          continue;
        }
        digests[i] = TableDigest(*table);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& error : errors) {
    if (!error.ok()) return error;
  }
  return digests;
}

/// update_mix references: the digest of each (graph version, query) pair
/// the daemon answered, where version v is the graph after the first v
/// updates. Versions are split across four replicas.
std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> VersionedDigests(
    const Inputs& in,
    const std::set<std::pair<std::uint64_t, std::string>>& needed) {
  std::vector<std::uint64_t> versions;
  for (const auto& [version, text] : needed) {
    if (versions.empty() || versions.back() != version) {
      versions.push_back(version);
    }
  }
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> digests;
  std::mutex mu;
  constexpr unsigned kWorkers = 4;
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      DynamicGraph replica(in.graph);
      std::size_t applied = 0;
      for (std::size_t i = w; i < versions.size(); i += kWorkers) {
        const std::uint64_t version = versions[i];
        if (version > in.updates.size()) continue;  // no such version
        while (applied < version) {
          auto result = replica.Apply(in.updates[applied++]);
          (void)result;  // the stream was generated against this replica
        }
        Graph snapshot = replica.Materialize();
        QueryEngine engine(snapshot);
        QueryEngine::Options options;
        options.census.num_threads = 1;
        for (auto it = needed.lower_bound({version, ""});
             it != needed.end() && it->first == version; ++it) {
          auto table = engine.Execute(it->second, options);
          if (!table.ok()) continue;
          std::uint64_t digest = TableDigest(*table);
          std::lock_guard<std::mutex> lock(mu);
          digests[*it] = digest;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return digests;
}

/// Checks every response of `traffic` and counts attempts and failures.
void Verify(const Inputs& in, Workload workload,
            const std::vector<std::uint64_t>& pool_digests, Traffic* traffic,
            RunResult* result) {
  std::vector<Op*> all;
  for (Op& op : traffic->warmup) all.push_back(&op);
  for (Op& op : traffic->ops) all.push_back(&op);
  for (Op& op : traffic->final_check) all.push_back(&op);

  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> versioned;
  if (workload == Workload::kUpdateMix) {
    std::set<std::pair<std::uint64_t, std::string>> needed;
    for (Op* op : all) {
      if (op->is_update || !op->transport_ok) continue;
      needed.insert({op->version, op->index < in.pool.size()
                                      ? in.pool[op->index].text
                                      : FinalQueryText(in)});
    }
    versioned = VersionedDigests(in, needed);
  }

  for (Op* op : all) {
    ++result->attempted;
    std::string why;
    if (!op->sent || !op->transport_ok) {
      why = "transport: " + op->error;
    } else if (op->type != net::FrameType::kResult) {
      why = std::string(net::FrameTypeName(op->type)) + " response";
    } else if (op->exec_status != "OK") {
      why = "exec_status " + op->exec_status;
    } else if (op->is_update) {
      if (op->applied != 1 || op->version != op->index + 1) {
        why = "update not applied in order";
      }
    } else if (workload == Workload::kUpdateMix) {
      const std::string& text = op->index < in.pool.size()
                                    ? in.pool[op->index].text
                                    : FinalQueryText(in);
      auto it = versioned.find({op->version, text});
      if (it == versioned.end() || it->second != op->digest) {
        why = "response differs from the replica at graph version " +
              std::to_string(op->version);
      }
    } else if (op->version != 0 || op->digest != pool_digests[op->index]) {
      why = "response differs from the in-process reference (" +
            in.pool[op->index].name + ")";
    }
    if (why.empty()) {
      op->ok = true;
    } else {
      result->Fail(why);
    }
  }
  if (workload == Workload::kUpdateMix && !traffic->final_check.empty()) {
    std::uint64_t updates_ok = 0;
    for (const Op& op : traffic->ops) updates_ok += op.is_update && op.ok;
    if (traffic->final_check[0].version != updates_ok) {
      result->Fail("final graph version differs from the updates applied");
    }
  }
}

enum class OpKind { kAll, kQueries, kUpdates };

/// Latencies and lateness of the verified ops of one kind.
struct Summary {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
};

Summary Summarize(const Traffic& traffic, bool open_loop, OpKind kind) {
  Summary summary;
  for (const Op& op : traffic.ops) {
    if (!op.ok) continue;
    if (kind != OpKind::kAll && op.is_update != (kind == OpKind::kUpdates)) {
      continue;
    }
    summary.latency_ms.push_back(op.LatencyMs(open_loop));
    if (open_loop || op.prev_us != 0) summary.late_ms.push_back(op.LateMs());
  }
  return summary;
}

/// The end-to-end metrics of one timed window: the `latencies` of the
/// requests completed in `span` seconds. Throughput is completions per
/// second of that span. Returns it.
double AddEndToEnd(Workload workload, const std::vector<double>& setups,
                   const std::vector<double>& latencies, double span,
                   double peak_rss_mb, RunResult* result) {
  const double q = TailQuantile(workload);
  const double throughput =
      span > 0 ? static_cast<double>(latencies.size()) / span : 0;
  result->Add("setup_s", Median(setups), "s", setups.size());
  result->Add("p50_ms", Median(latencies), "ms", latencies.size());
  result->Add("tail_ms", Quantile(latencies, q), "ms", latencies.size());
  result->Add("throughput_per_s", throughput, "1/s", latencies.size());
  result->Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  result->Detail("tail_percentile", q * 100, "pct", latencies.size());
  std::size_t beyond = CountBeyond(latencies, q);
  if (beyond < 10) {
    result->notes.push_back("p" + std::to_string(std::lround(q * 100)) +
                            " has only " + std::to_string(beyond) +
                            " samples beyond it");
  }
  return throughput;
}

Traffic Drive(const RunOptions& o, const Inputs& in,
              const net::Endpoint& endpoint, double seconds,
              const std::string& tag, bool keep) {
  if (IsOpenLoop(o.workload)) {
    return RunOpenLoop(in, endpoint, seconds, o.seed, tag, keep);
  }
  return RunClosedLoop(in, endpoint, o.workload, seconds, o.seed, tag, keep);
}

/// Starts the daemon `count` times; the set-up time of each start goes to
/// `*setups`. Each daemon is killed and reaped as it goes out of scope: a
/// SHUTDOWN would wait out the daemon's 100 ms accept poll every time.
Status TimeDaemonStarts(const RunOptions& o, const Inputs& in, int count,
                        std::vector<double>* setups) {
  for (int i = 0; i < count; ++i) {
    double setup = 0;
    auto daemon = Daemon::Start(o.ecensusd, in.graph_path, "", &setup);
    if (!daemon.ok()) return daemon.status();
    setups->push_back(setup);
  }
  return Status::Ok();
}

void TimedRun(const RunOptions& o, const Inputs& in,
              const std::vector<std::uint64_t>& digests, RunResult* result) {
  std::vector<double> setups;
  Status before = TimeDaemonStarts(o, in, kSetupRepetitions / 2, &setups);
  if (!before.ok()) {
    result->Fail("daemon start: " + before.ToString());
    return;
  }
  double setup = 0;
  auto daemon = Daemon::Start(o.ecensusd, in.graph_path, "", &setup);
  if (!daemon.ok()) {
    result->Fail("daemon start: " + daemon.status().ToString());
    return;
  }
  setups.push_back(setup);
  Traffic traffic = Drive(o, in, daemon->endpoint(), o.seconds, "r", false);
  auto rss = daemon->PeakRssMb();
  Status stopped = daemon->Shutdown();
  if (!stopped.ok()) result->Fail("daemon shutdown: " + stopped.ToString());
  Status after = TimeDaemonStarts(
      o, in, kSetupRepetitions - static_cast<int>(setups.size()), &setups);
  if (!after.ok()) result->Fail("daemon start: " + after.ToString());
  Verify(in, o.workload, digests, &traffic, result);

  const bool open = IsOpenLoop(o.workload);
  Summary all = Summarize(traffic, open, OpKind::kAll);
  std::map<std::string, std::vector<double>> by_template;
  std::uint64_t last_us = traffic.start_us;
  for (const Op& op : traffic.ops) {
    if (!op.ok) continue;
    by_template[op.is_update ? "update" : in.pool[op.index].name].push_back(
        op.LatencyMs(open));
    last_us = std::max(last_us, op.recv_us);
  }
  const double throughput = AddEndToEnd(
      o.workload, setups, all.latency_ms,
      static_cast<double>(last_us - traffic.start_us) / 1e6,
      rss.ok() ? *rss : 0.0, result);
  if (!rss.ok()) result->Fail("peak RSS: " + rss.status().ToString());
  result->Detail("late_p99_ms", Quantile(all.late_ms, 0.99), "ms",
                 all.late_ms.size());
  for (const auto& [name, latencies] : by_template) {
    result->Detail("p50_ms." + name, Median(latencies), "ms", latencies.size());
  }
  if (o.workload == Workload::kFullCensus) {
    result->Detail("focal_per_s", throughput * in.graph.NumNodes(), "1/s",
                   all.latency_ms.size());
  }
  if (open) {
    Summary queries = Summarize(traffic, true, OpKind::kQueries);
    Summary updates = Summarize(traffic, true, OpKind::kUpdates);
    result->Detail("query_p50_ms", Median(queries.latency_ms), "ms",
                   queries.latency_ms.size());
    result->Detail("query_p99_ms", Quantile(queries.latency_ms, 0.99), "ms",
                   queries.latency_ms.size());
    result->Detail("update_p50_ms", Median(updates.latency_ms), "ms",
                   updates.latency_ms.size());
    result->Detail("update_p95_ms", Quantile(updates.latency_ms, 0.95), "ms",
                   updates.latency_ms.size());
  }
}

// ---- Traced runs --------------------------------------------------------

/// One request's wide event from the daemon's --log-file.
struct WideEvent {
  std::string request_id;
  std::string verb;
  std::uint64_t ts_us = 0;  // written at request end, steady clock
  std::uint64_t queue_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t latency_us = 0;
};

std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  if (at < line.size() && line[at] == '"') {
    std::size_t end = line.find('"', at + 1);
    return line.substr(at + 1, end - at - 1);
  }
  std::size_t end = line.find_first_of(",}", at);
  return line.substr(at, end - at);
}

std::vector<WideEvent> ReadWideEvents(const std::string& path) {
  std::vector<WideEvent> events;
  std::ifstream in(path);
  std::string line;
  auto number = [](const std::string& text) -> std::uint64_t {
    return text.empty() ? 0 : std::stoull(text);
  };
  while (std::getline(in, line)) {
    WideEvent event;
    event.request_id = JsonField(line, "request_id");
    event.verb = JsonField(line, "verb");
    if (event.request_id.empty()) continue;
    event.ts_us = number(JsonField(line, "ts_us"));
    event.queue_us = number(JsonField(line, "queue_us"));
    event.execute_us = number(JsonField(line, "execute_us"));
    event.latency_us = number(JsonField(line, "latency_us"));
    events.push_back(std::move(event));
  }
  return events;
}

/// Client spans for each op, with the daemon's queue/execute spans from its
/// wide events as children.
void RecordRequestSpans(const Traffic& traffic,
                        const std::vector<WideEvent>& events,
                        SpanRecorder* spans) {
  std::map<std::string, const WideEvent*> by_id;
  for (const WideEvent& event : events) by_id[event.request_id] = &event;
  for (const Op& op : traffic.ops) {
    if (!op.sent) continue;
    SpanRecorder::Span client;
    client.name = op.is_update ? "client/UPDATE" : "client/QUERY";
    client.start_us = op.send_us;
    client.end_us = op.recv_us;
    client.request_id = op.request_id;
    client.lane = static_cast<std::uint32_t>(op.lane + 1);
    std::size_t parent = spans->Record(client);
    auto it = by_id.find(op.request_id);
    if (it == by_id.end()) continue;
    const WideEvent& event = *it->second;
    const std::uint64_t start = event.ts_us - event.latency_us;
    SpanRecorder::Span queue{"daemon/queue", start, start + event.queue_us,
                             parent, op.request_id, client.lane};
    SpanRecorder::Span execute{"daemon/execute", start + event.queue_us,
                               event.ts_us, parent, op.request_id, client.lane};
    spans->Record(queue);
    spans->Record(execute);
  }
}

/// The net.* metrics of a traced traffic run. net.overhead_ms compares,
/// query by query, the untraced daemon round trip (send to receive) with
/// the in-process execution of the same text.
void AddNetLayers(const Traffic& untraced, const Traffic& traced,
                  const std::vector<WideEvent>& events,
                  const std::map<std::size_t, double>& execute_ms_by_query,
                  SpanRecorder* spans, RunResult* result) {
  std::vector<double> queue_ms, execute_ms, response_kb, overhead_ms;
  for (const WideEvent& event : events) {
    if (event.verb != "QUERY") continue;
    queue_ms.push_back(static_cast<double>(event.queue_us) / 1e3);
    execute_ms.push_back(static_cast<double>(event.execute_us) / 1e3);
  }
  for (const Op& op : traced.ops) {
    if (op.ok && !op.is_update) {
      response_kb.push_back(static_cast<double>(op.response_bytes) / 1024.0);
    }
  }
  for (const auto& [index, in_process_ms] : execute_ms_by_query) {
    std::vector<double> round_trip_ms;
    for (const Op& op : untraced.ops) {
      if (op.ok && !op.is_update && op.index == index) {
        round_trip_ms.push_back(op.LatencyMs(false));
      }
    }
    if (!round_trip_ms.empty()) {
      overhead_ms.push_back(Median(round_trip_ms) - in_process_ms);
    }
  }
  CodecTimes codec = MeasureFrameCodec(traced.exchanges, spans);
  result->Add("net.encode_us", codec.encode_us, "us", traced.exchanges.size());
  result->Add("net.decode_us", codec.decode_us, "us", traced.exchanges.size());
  result->Add("net.response_kb", Mean(response_kb), "KB", response_kb.size());
  result->Add("net.queue_wait_ms_p99", Quantile(queue_ms, 0.99), "ms",
              queue_ms.size());
  result->Add("net.execute_ms_p50", Median(execute_ms), "ms",
              execute_ms.size());
  result->Add("net.overhead_ms", Mean(overhead_ms), "ms", overhead_ms.size());
}

void AddDriverLayers(const std::vector<double>& untraced_ms,
                     const std::vector<double>& traced_ms,
                     const std::vector<double>& late_ms, RunResult* result) {
  const double plain = Median(untraced_ms);
  result->Add("driver.trace_overhead",
              plain > 0 ? Median(traced_ms) / plain - 1 : 0, "ratio",
              traced_ms.size());
  result->Add("driver.late_p99_ms", Quantile(late_ms, 0.99), "ms",
              late_ms.size());
}

/// `window` seconds of the workload's traffic against a fresh daemon, which
/// writes its wide events to `log_path` unless that is empty.
std::optional<Traffic> TrafficOnFreshDaemon(const RunOptions& o,
                                            const Inputs& in, double window,
                                            const std::string& log_path,
                                            const std::string& tag, bool keep,
                                            RunResult* result) {
  double setup = 0;
  auto daemon = Daemon::Start(o.ecensusd, in.graph_path, log_path, &setup);
  if (!daemon.ok()) {
    result->Fail("daemon start: " + daemon.status().ToString());
    return std::nullopt;
  }
  Traffic traffic = Drive(o, in, daemon->endpoint(), window, tag, keep);
  Status stopped = daemon->Shutdown();
  if (!stopped.ok()) result->Fail("daemon shutdown: " + stopped.ToString());
  return traffic;
}

/// Per-layer run: a quarter-length window untraced, a quarter-length window
/// with the daemon's wide events on, then the in-process layer replay.
void TracedRun(const RunOptions& o, const Inputs& in,
               const std::vector<std::uint64_t>& digests, SpanRecorder* spans,
               RunResult* result) {
  const double window = o.seconds / 4;
  const bool open = IsOpenLoop(o.workload);
  const std::string log_path = o.work_dir + "/daemon.log";
  std::remove(log_path.c_str());
  auto plain = TrafficOnFreshDaemon(o, in, window, "", "u", false, result);
  auto traced =
      TrafficOnFreshDaemon(o, in, window, log_path, "t", true, result);
  if (!plain.has_value() || !traced.has_value()) return;
  Verify(in, o.workload, digests, &*plain, result);
  Verify(in, o.workload, digests, &*traced, result);
  std::vector<WideEvent> events = ReadWideEvents(log_path);
  RecordRequestSpans(*traced, events, spans);

  std::map<std::size_t, double> execute_ms = MeasureLayers(in, spans, result);
  AddNetLayers(*plain, *traced, events, execute_ms, spans, result);
  if (open) {
    // The end-to-end latencies the dynamic.* layer explains, from this run.
    std::vector<double> update_ms =
        Summarize(*plain, true, OpKind::kUpdates).latency_ms;
    std::vector<double> query_ms =
        Summarize(*plain, true, OpKind::kQueries).latency_ms;
    result->Detail("update_p50_ms", Median(update_ms), "ms", update_ms.size());
    result->Detail("query_p50_ms", Median(query_ms), "ms", query_ms.size());
  }
  Summary untraced = Summarize(*plain, open, OpKind::kAll);
  AddDriverLayers(untraced.latency_ms,
                  Summarize(*traced, open, OpKind::kAll).latency_ms,
                  untraced.late_ms, result);
}

}  // namespace

RunResult RunWorkload(const RunOptions& o) {
  RunResult result;
  const std::size_t num_updates =
      o.workload == Workload::kUpdateMix
          ? static_cast<std::size_t>(o.seconds * 1e6 / kUpdatePeriodUs) + 2
          : 16;
  auto inputs =
      MakeInputs(o.workload, o.seed, o.smoke, num_updates, o.work_dir);
  if (!inputs.ok()) {
    result.Fail("inputs: " + inputs.status().ToString());
    return result;
  }
  auto digests = PoolDigests(*inputs);
  if (!digests.ok()) {
    result.Fail("reference: " + digests.status().ToString());
    return result;
  }
  if (!o.trace) {
    TimedRun(o, *inputs, *digests, &result);
    return result;
  }
  SpanRecorder spans;
  TracedRun(o, *inputs, *digests, &spans, &result);
  std::ofstream trace(o.trace_out);
  spans.WriteChromeTrace(trace);
  if (!trace) result.Fail("cannot write trace " + o.trace_out);
  return result;
}

}  // namespace ledger
