// Request-scoped observability end to end (docs/OBSERVABILITY.md, "Request
// telemetry"): request ids assigned uniquely under concurrency and echoed
// when client-propagated, the canonical wide log event (exactly one JSON
// line per request), the METRICS Prometheus exposition validated with a
// hand-rolled parser and cross-checked against STATUS, the slow-query ring
// + Chrome-trace dump, and the governor annotation that stamps request ids
// into stop messages. Binds ephemeral ports and synchronizes on
// failpoints/counters, never sleeps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/failpoints.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/request_context.h"
#include "net/server.h"
#include "obs/log.h"
#include "obs/obs.h"

namespace egocensus::net {
namespace {

constexpr const char* kTriangleQuery =
    "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
    "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes";

constexpr const char* kHeavyQuery =
    "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
    "SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes";

Graph TestGraph(std::uint32_t nodes, std::uint32_t edges_per_node,
                std::uint64_t seed) {
  GeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.edges_per_node = edges_per_node;
  gen.num_labels = 3;
  gen.seed = seed;
  return GeneratePreferentialAttachment(gen);
}

bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

std::unique_ptr<CensusServer> StartServer(Graph graph,
                                          CensusServer::Options options) {
  options.listen.port = 0;
  auto server = std::make_unique<CensusServer>(options);
  EXPECT_TRUE(server->registry().Add("g", std::move(graph)).ok());
  EXPECT_TRUE(server->Start().ok());
  return server;
}

Endpoint EndpointOf(const CensusServer& server) {
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = server.port();
  return endpoint;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---- request ids ---------------------------------------------------------

TEST(NetObservabilityTest, ConcurrentClientsGetUniqueRequestIds) {
  auto server = StartServer(TestGraph(800, 4, 13), {});
  Endpoint endpoint = EndpointOf(*server);

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 2;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> ids(kClients);
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(endpoint);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        auto response =
            client->Call(Client::QueryRequest("g", kTriangleQuery));
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        ids[c].push_back(response->Header("request_id", ""));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");

  std::set<std::string> unique;
  for (const auto& client_ids : ids) {
    for (const std::string& id : client_ids) {
      EXPECT_FALSE(id.empty());
      EXPECT_EQ(id[0], 'r') << "server-assigned ids are r<start>-<seq>";
      EXPECT_TRUE(ValidRequestId(id)) << id;
      unique.insert(id);
    }
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kClients * kQueriesEach));
}

TEST(NetObservabilityTest, InvalidClientRequestIdIsReplaced) {
  auto server = StartServer(TestGraph(300, 4, 17), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  Message request = Client::QueryRequest("g", kTriangleQuery);
  request.headers["request_id"] = "bad id\twith spaces!";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok());
  std::string echoed = response->Header("request_id", "");
  EXPECT_NE(echoed, "bad id\twith spaces!");
  EXPECT_TRUE(ValidRequestId(echoed)) << echoed;
}

TEST(NetObservabilityTest, ClientRequestIdEchoesOnEveryResponseType) {
  auto server = StartServer(TestGraph(300, 4, 17), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  Message query = Client::QueryRequest("g", kTriangleQuery);
  query.headers["request_id"] = "corr-query.1";
  auto result = client->Call(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->type, FrameType::kResult);
  EXPECT_EQ(result->Header("request_id", ""), "corr-query.1");

  // ERROR responses echo too (unknown graph).
  Message bad = Client::QueryRequest("nope", kTriangleQuery);
  bad.headers["request_id"] = "corr-err:2";
  auto error = client->Call(bad);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(error->Header("request_id", ""), "corr-err:2");

  // STATUS responses echo and record the id in the recent ring.
  Message status_req = Client::StatusRequest();
  status_req.headers["request_id"] = "corr-status_3";
  auto status = client->Call(status_req);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->Header("request_id", ""), "corr-status_3");
  EXPECT_NE(status->body.find("corr-query.1"), std::string::npos)
      << "STATUS recent ring must carry request ids";
  const auto verbs = server->Snapshot().verbs;
  EXPECT_EQ(verbs.at(FrameType::kQuery), 2u);
  EXPECT_EQ(verbs.at(FrameType::kStatus), 1u);
}

// ---- the wide log event --------------------------------------------------

TEST(NetObservabilityTest, PropagatedIdAppearsInExactlyOneLogLine) {
  obs::Logger& logger = obs::Logger::Global();
  logger.ResetForTest();
  std::string log_path = ::testing::TempDir() + "/net_obs_wide_event.jsonl";
  std::remove(log_path.c_str());
  ASSERT_TRUE(logger.OpenFile(log_path).ok());

  auto server = StartServer(TestGraph(400, 4, 19), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  Message request = Client::QueryRequest("g", kTriangleQuery);
  request.headers["request_id"] = "wide-evt-7";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Header("request_id", ""), "wide-evt-7");

  // The log line is written before the response hits the wire, but flush
  // ordering is the logger's; written() is the barrier.
  ASSERT_TRUE(WaitFor([&logger] { return logger.written() >= 1; }));
  logger.ResetForTest();  // close the sink so the read sees complete lines

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  int matching = 0;
  std::string the_line;
  for (const std::string& line : SplitLines(content.str())) {
    if (line.find("\"request_id\":\"wide-evt-7\"") != std::string::npos) {
      ++matching;
      the_line = line;
    }
  }
  EXPECT_EQ(matching, 1) << "exactly one wide event per request";
  EXPECT_NE(the_line.find("\"event\":\"request\""), std::string::npos);
  EXPECT_NE(the_line.find("\"verb\":\"QUERY\""), std::string::npos);
  EXPECT_NE(the_line.find("\"graph\":\"g\""), std::string::npos);
  EXPECT_NE(the_line.find("\"queue_us\":"), std::string::npos);
  EXPECT_NE(the_line.find("\"execute_us\":"), std::string::npos);
  EXPECT_NE(the_line.find("\"stop_reason\":\"none\""), std::string::npos);
  EXPECT_NE(the_line.find("\"rows\":"), std::string::npos);
  EXPECT_NE(the_line.find("\"pattern_nodes\":3"), std::string::npos);
  EXPECT_NE(the_line.find("\"k\":1"), std::string::npos);
  EXPECT_NE(the_line.find("\"engine\":\"fastpath\""), std::string::npos);
  EXPECT_EQ(the_line.front(), '{');
  EXPECT_EQ(the_line.back(), '}');
}

TEST(NetObservabilityTest, RateLimitDropsExcessLines) {
  obs::Logger& logger = obs::Logger::Global();
  logger.ResetForTest();
  std::string log_path = ::testing::TempDir() + "/net_obs_rate_limit.jsonl";
  std::remove(log_path.c_str());
  ASSERT_TRUE(logger.OpenFile(log_path).ok());
  logger.SetRateLimit(1);

  auto server = StartServer(TestGraph(200, 3, 23), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto response = client->Call(Client::StatusRequest());
    ASSERT_TRUE(response.ok());
  }
  ASSERT_TRUE(WaitFor(
      [&logger] { return logger.written() + logger.dropped() >= 5; }));
  EXPECT_GE(logger.dropped(), 1u)
      << "five STATUS requests in one window must exceed 1 line/s";
  logger.ResetForTest();
}

// ---- METRICS exposition ----------------------------------------------------

/// Hand-rolled Prometheus text-format (v0.0.4) validator: every sample's
/// family must be declared by a preceding # TYPE, sample lines must carry a
/// parseable value, and histogram bucket series must be cumulative.
void ValidateExposition(const std::string& text) {
  std::map<std::string, std::string> family_type;  // family -> counter|gauge|histogram
  std::map<std::string, double> last_bucket;       // series prefix -> last le value
  for (const std::string& line : SplitLines(text)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream in(line);
      std::string hash, kind, family, rest;
      in >> hash >> kind >> family;
      if (kind == "TYPE") {
        in >> rest;
        EXPECT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "histogram")
            << line;
        family_type[family] = rest;
      }
      continue;
    }
    // Sample: name{labels} value  (labels optional).
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value: " << line;
    EXPECT_GE(parsed, 0.0) << line;

    std::string base = name.substr(0, name.find('{'));
    std::string family = base;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      std::size_t n = std::string(suffix).size();
      if (family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0 &&
          family_type.count(family.substr(0, family.size() - n))) {
        family = family.substr(0, family.size() - n);
      }
    }
    EXPECT_TRUE(family_type.count(family))
        << "sample with no preceding # TYPE: " << line;

    // Cumulative-bucket check: within one series, counts never decrease as
    // `le` grows (buckets arrive in ascending order; +Inf is last).
    if (base.size() > 7 && base.compare(base.size() - 7, 7, "_bucket") == 0) {
      std::size_t le = name.rfind("le=\"");
      ASSERT_NE(le, std::string::npos) << line;
      std::string series = name.substr(0, le);
      auto it = last_bucket.find(series);
      if (it != last_bucket.end()) {
        EXPECT_GE(parsed, it->second) << "non-cumulative buckets: " << line;
      }
      last_bucket[series] = parsed;
    }
  }
  EXPECT_FALSE(family_type.empty()) << "exposition had no families";
}

TEST(NetObservabilityTest, MetricsExpositionParsesAndCountsTraffic) {
  obs::SetEnabled(true);
  auto server = StartServer(TestGraph(600, 4, 29), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  auto query = client->Call(Client::QueryRequest("g", kTriangleQuery));
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->Header("exec_status", ""), "OK");

  auto metrics = client->Call(Client::MetricsRequest());
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->type, FrameType::kResult);
  EXPECT_EQ(metrics->Header("content", ""), "text/plain; version=0.0.4");

  const std::string& body = metrics->body;
  ValidateExposition(body);

  // The daemon families render whether or not the registry is on: the
  // QUERY tally and the per-graph fastpath routing counters must label
  // this traffic.
  EXPECT_NE(body.find("egocensus_daemon_requests_total{verb=\"QUERY\"} 1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("egocensus_daemon_uptime_seconds"), std::string::npos);
  EXPECT_NE(body.find("egocensus_daemon_fastpath_total{graph=\"g\""),
            std::string::npos)
      << body;

  // With the registry on, the request-scoped families appear too, labeled
  // by verb and graph, and the latency histogram renders buckets.
  EXPECT_NE(body.find(
                "egocensus_server_requests_total{verb=\"QUERY\",graph=\"g\"}"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("egocensus_server_latency_us"), std::string::npos);
  EXPECT_NE(body.find("_bucket{"), std::string::npos);
  obs::SetEnabled(false);
}

// ---- slow-query capture ----------------------------------------------------

TEST(NetObservabilityTest, SlowQueryRingCapturesDelayedRequest) {
  failpoints::DisarmAll();
  CensusServer::Options options;
  options.slow_query_threshold_ms = 50;
  options.slow_ring_capacity = 4;
  auto server = StartServer(TestGraph(800, 4, 31), options);
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  // A fast query stays out of the ring.
  auto fast = client->Call(Client::QueryRequest("g", kTriangleQuery));
  ASSERT_TRUE(fast.ok());

  // Park one checkpoint past the threshold so the capture is deterministic.
  failpoints::Arm("exec/checkpoint", 1, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  Message slow_req = Client::QueryRequest("g", kTriangleQuery);
  slow_req.headers["request_id"] = "slow-one";
  auto slow = client->Call(slow_req);
  failpoints::DisarmAll();
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->Header("exec_status", ""), "OK");

  auto captured = server->Snapshot().slow_queries;
  ASSERT_GE(captured.size(), 1u);
  EXPECT_EQ(captured.front().request_id, "slow-one")
      << "the delayed request is the newest capture";
  EXPECT_GE(captured.front().latency_us, 100000u);
  EXPECT_FALSE(captured.front().spans.empty())
      << "capture carries the span tree";

  // STATUS surfaces the capture summary...
  auto status = client->Call(Client::StatusRequest());
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->body.find("\"slow_queries\""), std::string::npos);
  EXPECT_NE(status->body.find("slow-one"), std::string::npos);

  // ...and the slow_trace header swaps the body for a Chrome trace.
  Message trace_req = Client::StatusRequest();
  trace_req.headers["slow_trace"] = "slow-one";
  auto trace = client->Call(trace_req);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->type, FrameType::kResult);
  EXPECT_NE(trace->body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace->body.find("slow-one"), std::string::npos);
  EXPECT_NE(trace->body.find("\"ph\": \"X\""), std::string::npos);

  // "latest" resolves to the same capture; unknown ids are NOT_FOUND.
  Message latest_req = Client::StatusRequest();
  latest_req.headers["slow_trace"] = "latest";
  auto latest = client->Call(latest_req);
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest->body.find("slow-one"), std::string::npos);

  Message missing_req = Client::StatusRequest();
  missing_req.headers["slow_trace"] = "no-such-id";
  auto missing = client->Call(missing_req);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->type, FrameType::kError);
}

// ---- governor annotation ---------------------------------------------------

TEST(NetObservabilityTest, GovernedStopMessageCarriesRequestId) {
  auto server = StartServer(TestGraph(8000, 8, 19), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  Message request = Client::QueryRequest("g", kHeavyQuery);
  request.headers["deadline_ms"] = "1";
  request.headers["request_id"] = "stopped-42";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, FrameType::kResult);
  EXPECT_EQ(response->Header("stop_reason", ""), "deadline_exceeded");
  EXPECT_NE(response->Header("exec_message", "").find("request stopped-42"),
            std::string::npos)
      << "exec_message was: " << response->Header("exec_message", "");
}

// ---- STATUS schema ---------------------------------------------------------

TEST(NetObservabilityTest, StatusCarriesSchemaAndVerbTallies) {
  auto server = StartServer(TestGraph(300, 4, 37), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());
  auto query = client->Call(Client::QueryRequest("g", kTriangleQuery));
  ASSERT_TRUE(query.ok());

  auto status = client->Call(Client::StatusRequest());
  ASSERT_TRUE(status.ok());
  const std::string& body = status->body;
  EXPECT_NE(body.find("\"schema\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"verbs\""), std::string::npos);
  // Schema 2 additions: queue state in "admission", per-tenant accounting.
  EXPECT_NE(body.find("\"queued\""), std::string::npos);
  EXPECT_NE(body.find("\"draining\""), std::string::npos);
  EXPECT_NE(body.find("\"tenants\""), std::string::npos);
  EXPECT_NE(body.find("\"QUERY\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"STATUS\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"uptime_us\""), std::string::npos);
}

// ---- STATUS and METRICS agree ----------------------------------------------

/// Sample values of an exposition, keyed by `name{labels}`.
std::map<std::string, std::uint64_t> ExpositionSamples(
    const std::string& text) {
  std::map<std::string, std::uint64_t> samples;
  for (const std::string& line : SplitLines(text)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t space = line.rfind(' ');
    samples[line.substr(0, space)] =
        std::strtoull(line.c_str() + space + 1, nullptr, 10);
  }
  return samples;
}

/// The unsigned value of the first `"key": ` at or after `from` in a STATUS
/// body. STATUS objects keep a fixed key order, so searching from an
/// object's start finds that object's own field.
std::uint64_t StatusValue(const std::string& json, const std::string& key,
                          std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  std::size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << "no " << key << " in " << json;
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

TEST(NetObservabilityTest, StatusAndMetricsReportTheSameSnapshot) {
  failpoints::DisarmAll();
  CensusServer::Options options;
  options.max_inflight = 1;
  options.queue_depth = 0;  // reject-on-full: the second request overflows
  auto server = StartServer(TestGraph(600, 4, 41), options);
  Endpoint endpoint = EndpointOf(*server);

  // Tenant alpha holds the only slot, parked at a governed checkpoint.
  std::atomic<bool> release{false};
  failpoints::Arm("exec/checkpoint", 1, [&release] {
    for (int i = 0; i < 2000 && !release.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread holder([&] {
    auto client = Client::Connect(endpoint);
    ASSERT_TRUE(client.ok());
    Message query = Client::QueryRequest("g", kTriangleQuery);
    query.headers["tenant"] = "alpha";
    auto response = client->Call(query);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->Header("exec_status", ""), "OK");
  });
  ASSERT_TRUE(WaitFor([] { return failpoints::Hits("exec/checkpoint") >= 1; }));
  ASSERT_TRUE(WaitFor([&server] { return server->inflight() == 1; }));

  // Tenant beta overflows, then (slot free again) applies one UPDATE.
  auto client = Client::Connect(endpoint);
  ASSERT_TRUE(client.ok());
  Message overflow = Client::QueryRequest("g", kTriangleQuery);
  overflow.headers["tenant"] = "beta";
  auto busy = client->Call(overflow);
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->type, FrameType::kBusy);
  release.store(true);
  holder.join();
  failpoints::DisarmAll();
  Message update = Client::UpdateRequest("g", "ae 0 599\n");
  update.headers["tenant"] = "beta";
  auto updated = client->Call(update);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->Header("exec_status", ""), "OK");

  auto metrics = client->Call(Client::MetricsRequest());
  ASSERT_TRUE(metrics.ok());
  auto status = client->Call(Client::StatusRequest());
  ASSERT_TRUE(status.ok());
  const std::map<std::string, std::uint64_t> prom =
      ExpositionSamples(metrics->body);
  const std::string& json = status->body;
  auto sample = [&prom](const std::string& name) {
    auto it = prom.find("egocensus_daemon_" + name);
    EXPECT_NE(it, prom.end()) << "no sample " << name;
    return it == prom.end() ? ~std::uint64_t{0} : it->second;
  };

  for (const char* verb : {"QUERY", "UPDATE"}) {
    EXPECT_EQ(sample("requests_total{verb=\"" + std::string(verb) + "\"}"),
              StatusValue(json, verb, json.find("\"verbs\"")))
        << verb;
  }
  EXPECT_EQ(sample("busy_rejected_total"), 1u);
  EXPECT_EQ(sample("busy_rejected_total"),
            StatusValue(json, "busy_rejected", json.find("\"admission\"")));

  for (const std::string tenant : {"alpha", "beta"}) {
    const std::size_t at = json.find("{\"tenant\": \"" + tenant + "\"");
    ASSERT_NE(at, std::string::npos) << tenant;
    const std::string label = "{tenant=\"" + tenant + "\"";
    EXPECT_EQ(sample("queue_granted_total" + label + "}"),
              StatusValue(json, "granted", at));
    EXPECT_EQ(sample("queue_wait_us_count" + label + "}"),
              StatusValue(json, "count", at));
    EXPECT_EQ(sample("queue_wait_us_sum" + label + "}"),
              StatusValue(json, "sum_us", at));
    const std::pair<const char*, const char*> reasons[] = {
        {"overflow", "busy_overflow"},
        {"deadline", "deadline"},
        {"disconnect", "disconnect"},
        {"drain", "drain"}};
    for (const auto& [reason, key] : reasons) {
      EXPECT_EQ(sample("queue_rejected_total" + label + ",reason=\"" +
                       reason + "\"}"),
                StatusValue(json, key, at))
          << tenant << " " << reason;
    }
  }
  EXPECT_EQ(sample("queue_granted_total{tenant=\"alpha\"}"), 1u);
  EXPECT_EQ(sample("queue_granted_total{tenant=\"beta\"}"), 1u);
  EXPECT_EQ(sample("queue_rejected_total{tenant=\"beta\",reason=\"overflow\"}"),
            1u);

  const std::size_t graph = json.find("{\"name\": \"g\"");
  ASSERT_NE(graph, std::string::npos);
  for (const char* route : {"routed", "generic"}) {
    EXPECT_EQ(sample("fastpath_total{graph=\"g\",route=\"" +
                     std::string(route) + "\"}"),
              StatusValue(json, route, graph))
        << route;
  }
  EXPECT_EQ(sample("fastpath_total{graph=\"g\",route=\"routed\"}"), 1u);
}

}  // namespace
}  // namespace egocensus::net
