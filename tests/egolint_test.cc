// egolint over fixture snippets: one positive and one suppressed case per
// check, with exact finding counts and exit codes, plus the structural
// rules (ambiguous names, driven functions, directory scoping) that keep
// the checks useful on the real tree — and a full-repo smoke run asserting
// the tree lints clean inside the CI time budget.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "egolint.h"

namespace egolint {
namespace {

std::vector<Finding> Lint(std::vector<SourceFile> files) {
  return RunLint(files, LintOptions{});
}

// ---- status-discipline -------------------------------------------------

TEST(EgolintStatusTest, FlagsStatusFunctionWithoutNodiscard) {
  std::vector<Finding> findings = Lint({
      {"src/util/thing.h", "class Status;\nStatus Load();\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "status-discipline");
  EXPECT_EQ(findings[0].file, "src/util/thing.h");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("Load"), std::string::npos);
  EXPECT_EQ(ExitCodeFor(findings), 1);
}

TEST(EgolintStatusTest, NodiscardSuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/util/thing.h",
       "class Status;\n"
       "// egolint: no-nodiscard(kept source-compatible for plugins)\n"
       "Status Load();\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
  EXPECT_EQ(ExitCodeFor(findings), 0);
}

TEST(EgolintStatusTest, FlagsDiscardedStatusCall) {
  std::vector<Finding> findings = Lint({
      {"src/util/thing.h", "class Status;\n[[nodiscard]] Status Save();\n"},
      {"src/util/user.cc", "void F() {\n  Save();\n}\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "status-discipline");
  EXPECT_EQ(findings[0].file, "src/util/user.cc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(EgolintStatusTest, VoidCastIsStillADiscard) {
  std::vector<Finding> findings = Lint({
      {"src/util/thing.h", "class Status;\n[[nodiscard]] Status Save();\n"},
      {"src/util/user.cc", "void F() {\n  (void)Save();\n}\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("(void)"), std::string::npos);
}

TEST(EgolintStatusTest, DiscardSuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/util/thing.h", "class Status;\n[[nodiscard]] Status Save();\n"},
      {"src/util/user.cc",
       "void F() {\n"
       "  Save();  // egolint: allow-discard(best-effort cache flush)\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintStatusTest, AmbiguousNameIsNotFlaggedAtCallSites) {
  // Graph::AddNode returns NodeId while DynamicGraph::AddNode returns
  // Result<NodeId>; a name-level pass must not guess which one a call site
  // resolves to.
  std::vector<Finding> findings = Lint({
      {"src/util/thing.h",
       "class Status;\n"
       "template <class T> class Result;\n"
       "[[nodiscard]] Result<int> AddNode(int label);\n"
       "int AddNode(int label, int weight);\n"},
      {"src/util/user.cc", "void F() {\n  AddNode(1, 2);\n}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

// ---- checkpoint-coverage -----------------------------------------------

constexpr const char* kUnpolledLoop =
    "void Run() {\n"
    "  for (int i = 0; i < num_focal; ++i) {\n"
    "    Work(focal[i]);\n"
    "  }\n"
    "}\n";

TEST(EgolintCheckpointTest, FlagsUnpolledFocalLoopInCheckedDir) {
  std::vector<Finding> findings =
      Lint({{"src/census/fake_engine.cc", kUnpolledLoop}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "checkpoint-coverage");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(ExitCodeFor(findings), 1);
}

TEST(EgolintCheckpointTest, OutsideCheckedDirsIsExempt) {
  std::vector<Finding> findings =
      Lint({{"src/graph/fake_engine.cc", kUnpolledLoop}});
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintCheckpointTest, DirectPollPasses) {
  std::vector<Finding> findings = Lint({
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  for (int i = 0; i < num_focal; ++i) {\n"
       "    if (gov->Checkpoint() != StopReason::kNone) return;\n"
       "    Work(focal[i]);\n"
       "  }\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintCheckpointTest, LoopInsideDrivenLambdaIsCovered) {
  // The engines' split: the driver loop polls per item and hands the item
  // to `process`; loops inside `process` ride on the driver's poll.
  std::vector<Finding> findings = Lint({
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  auto process = [&](int n) {\n"
       "    for (int j = 0; j < n; ++j) Touch(matches[j]);\n"
       "  };\n"
       "  for (int i = 0; i < num_focal; ++i) {\n"
       "    if (gov->Checkpoint() != StopReason::kNone) return;\n"
       "    process(focal[i]);\n"
       "  }\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintCheckpointTest, RemovingTheDriverPollUnrootsTheDrivenChain) {
  // Same shape as above minus the poll: both the driver loop and the loop
  // inside `process` must fire, mirroring the CI demo of deleting a
  // Checkpoint from an ND engine.
  std::vector<Finding> findings = Lint({
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  auto process = [&](int n) {\n"
       "    for (int j = 0; j < n; ++j) Touch(matches[j]);\n"
       "  };\n"
       "  for (int i = 0; i < num_focal; ++i) {\n"
       "    process(focal[i]);\n"
       "  }\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "checkpoint-coverage");
  EXPECT_EQ(findings[1].check, "checkpoint-coverage");
}

// A driver in the shape of the census drivers (census/engines.h): it polls
// once per item and hands each item to the kernel it receives. The
// parameter name differs from every kernel's name below, so the kernels
// are driven by being passed, not by a call name the driver loop makes.
constexpr const char* kDriverHeader =
    "template <typename Kernel>\n"
    "void ForEachItem(const Kernel& fn) {\n"
    "  for (int i = 0; i < num_focal; ++i) {\n"
    "    if (gov->Checkpoint() != StopReason::kNone) return;\n"
    "    fn(focal[i]);\n"
    "  }\n"
    "}\n";

TEST(EgolintCheckpointTest, LambdaWrittenInlineInADriverCallIsCovered) {
  std::vector<Finding> findings = Lint({
      {"src/census/fake_driver.h", kDriverHeader},
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  ForEachItem([&](int n) {\n"
       "    for (int j = 0; j < n; ++j) Touch(matches[j]);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintCheckpointTest, LambdaPassedToADriverByNameIsCovered) {
  std::vector<Finding> findings = Lint({
      {"src/census/fake_driver.h", kDriverHeader},
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  auto count_ball = [&](int n) {\n"
       "    for (int j = 0; j < n; ++j) Touch(matches[j]);\n"
       "  };\n"
       "  ForEachItem(count_ball);\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintCheckpointTest, LambdaNoDriverReceivesIsStillFlagged) {
  // The same per-match loops, in lambdas handed to a function that does
  // not poll per item and to ParallelFor, which polls per chunk.
  std::vector<Finding> findings = Lint({
      {"src/census/fake_driver.h", kDriverHeader},
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  auto count_ball = [&](int n) {\n"
       "    for (int j = 0; j < n; ++j) Touch(matches[j]);\n"
       "  };\n"
       "  Apply(count_ball);\n"
       "  pool->ParallelFor(0, n, 4, [&](int begin, int end, int w) {\n"
       "    for (int j = begin; j < end; ++j) Touch(matches[j]);\n"
       "  });\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "checkpoint-coverage");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].check, "checkpoint-coverage");
  EXPECT_EQ(findings[1].line, 7);
}

TEST(EgolintCheckpointTest, SameNamedFunctionOutsideCheckedDirsDrivesNothing) {
  // The census polling loop drives every function named Run; the Run in
  // src/lang shares only the name, so the census function it calls keeps
  // its unpolled focal loop flagged.
  std::vector<Finding> findings = Lint({
      {"src/census/fake_maintainer.cc",
       "void ApplyBatch() {\n"
       "  for (int i = 0; i < num_updates; ++i) {\n"
       "    if (gov->Checkpoint() != StopReason::kNone) return;\n"
       "    ws.Run(updates[i]);\n"
       "  }\n"
       "}\n"},
      {"src/lang/fake_query.cc",
       "void Run() {\n"
       "  CountAll();\n"
       "}\n"},
      {"src/census/fake_census.cc",
       "void CountAll() {\n"
       "  for (int i = 0; i < num_focal; ++i) {\n"
       "    Work(focal[i]);\n"
       "  }\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "checkpoint-coverage");
  EXPECT_EQ(findings[0].file, "src/census/fake_census.cc");
  EXPECT_EQ(findings[0].line, 2);
}

// A per-match scan in a census header template, in the shape of
// MatchAnchors::CountInside (census/pmi.h).
constexpr const char* kScanHeader =
    "template <typename Inside>\n"
    "int CountInside(const Inside& inside) {\n"
    "  int count = 0;\n"
    "  for (int m = 0; m < num_matches; ++m) {\n"
    "    if (inside(matches[m])) ++count;\n"
    "  }\n"
    "  return count;\n"
    "}\n";

TEST(EgolintCheckpointTest, UnpolledLoopInACensusHeaderIsFlagged) {
  std::vector<Finding> findings =
      Lint({{"src/census/fake_scan.h", kScanHeader}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "checkpoint-coverage");
  EXPECT_EQ(findings[0].file, "src/census/fake_scan.h");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(EgolintCheckpointTest, HeaderLoopThatADriverKernelCallsIsCovered) {
  std::vector<Finding> findings = Lint({
      {"src/census/fake_driver.h", kDriverHeader},
      {"src/census/fake_scan.h", kScanHeader},
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  ForEachItem([&](int n) {\n"
       "    CountInside(n);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintCheckpointTest, HeaderLoopWithAnUndrivenSecondCallerIsFlagged) {
  // The driver kernel's call is driven, but Recount calls the same scan
  // outside any polling loop: the scan runs unpolled there, so it is
  // checked like a function no driver reaches.
  std::vector<Finding> findings = Lint({
      {"src/census/fake_driver.h", kDriverHeader},
      {"src/census/fake_scan.h", kScanHeader},
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  ForEachItem([&](int n) {\n"
       "    CountInside(n);\n"
       "  });\n"
       "}\n"},
      {"src/dynamic/fake_recount.cc",
       "int Recount() {\n"
       "  return CountInside(0);\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "checkpoint-coverage");
  EXPECT_EQ(findings[0].file, "src/census/fake_scan.h");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(EgolintCheckpointTest, SuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  // egolint: no-checkpoint(O(|focal|) flag stores, no match work)\n"
       "  for (int i = 0; i < num_focal; ++i) {\n"
       "    Work(focal[i]);\n"
       "  }\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

// ---- request-discipline ---------------------------------------------------

TEST(EgolintRequestTest, FlagsHandlerWithoutRequestContext) {
  std::vector<Finding> findings = Lint({
      {"src/net/server.cc",
       "Message CensusServer::HandleStatus(const Message& request) {\n"
       "  return StatusResponse();\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "request-discipline");
  EXPECT_EQ(findings[0].file, "src/net/server.cc");
  EXPECT_NE(findings[0].message.find("HandleStatus"), std::string::npos);
}

TEST(EgolintRequestTest, ContextParameterInSignaturePasses) {
  std::vector<Finding> findings = Lint({
      {"src/net/server.cc",
       "Message CensusServer::HandleStatus(const Message& request,\n"
       "                                   RequestContext& ctx) {\n"
       "  return StatusResponse();\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, ContextUseInBodyPasses) {
  std::vector<Finding> findings = Lint({
      {"src/net/server.cc",
       "Message CensusServer::HandleStatus(const Message& request) {\n"
       "  RequestContext ctx = MakeContext(request);\n"
       "  return StatusResponse(ctx);\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, OutsideNetDirIsExempt) {
  std::vector<Finding> findings = Lint({
      {"src/lang/engine.cc",
       "Value HandleAggregate(const Expr& e) {\n  return Eval(e);\n}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, NonHandlerNamesAreExempt) {
  std::vector<Finding> findings = Lint({
      {"src/net/socket.cc",
       "int HandshakeTimeout() {\n  return 5;\n}\n"
       "void handle_signal(int) {\n}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, SuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/net/server.cc",
       "// egolint: no-request-context(internal retry path, not a dispatch "
       "target)\n"
       "Message CensusServer::HandlePing(const Message& request) {\n"
       "  return Pong();\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, FlagsBareBusyAndErrorComposition) {
  std::vector<Finding> findings = Lint({
      {"src/net/server.cc",
       "void F(Message& response) {\n"
       "  response.type = FrameType::kBusy;\n"
       "  response.type = FrameType::kError;\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "request-discipline");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("kBusy"), std::string::npos);
  EXPECT_NE(findings[1].message.find("kError"), std::string::npos);
  EXPECT_NE(findings[0].message.find("request_context.h"), std::string::npos);
}

TEST(EgolintRequestTest, ComparisonsAndCaseLabelsAreNotComposition) {
  std::vector<Finding> findings = Lint({
      {"src/net/client.cc",
       "int F(const Message& m) {\n"
       "  if (m.type == FrameType::kBusy) return 1;\n"
       "  if (m.type != FrameType::kError) return 2;\n"
       "  switch (m.type) {\n"
       "    case FrameType::kBusy: return 3;\n"
       "    case FrameType::kError: return 4;\n"
       "    default: return 0;\n"
       "  }\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, HelperFilesMayComposeBusyAndError) {
  std::vector<Finding> findings = Lint({
      {"src/net/request_context.h",
       "inline Message BusyResponse() {\n"
       "  Message response;\n"
       "  response.type = FrameType::kBusy;\n"
       "  return response;\n"
       "}\n"},
      {"src/net/frame.h", "struct Message {\n  FrameType type = FrameType::kError;\n};\n"},
      {"src/lang/engine.cc",
       "void G(Message& m) {\n  m.type = FrameType::kError;\n}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintRequestTest, BareCompositionSuppressionSilences) {
  std::vector<Finding> findings = Lint({
      {"src/net/server.cc",
       "void F(Message& response) {\n"
       "  // egolint: allow-bare-response(fuzzer stub, fields unused)\n"
       "  response.type = FrameType::kError;\n"
       "}\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

// ---- include-hygiene ----------------------------------------------------

TEST(EgolintIncludeTest, FlagsHeaderIncludeCycleOnce) {
  std::vector<Finding> findings = Lint({
      {"src/graph/a.h", "#include \"graph/b.h\"\nint A();\n"},
      {"src/graph/b.h", "#include \"graph/a.h\"\nint B();\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "include-hygiene");
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
}

TEST(EgolintIncludeTest, AcyclicIncludesAreClean) {
  std::vector<Finding> findings = Lint({
      {"src/graph/a.h", "#include \"graph/b.h\"\nint A();\n"},
      {"src/graph/b.h", "int B();\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintIncludeTest, FlagsUsingNamespaceInHeaderOnly) {
  std::vector<Finding> findings = Lint({
      {"src/graph/a.h", "using namespace std;\n"},
      {"src/graph/a.cc", "using namespace std;\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/graph/a.h");
  EXPECT_EQ(findings[0].check, "include-hygiene");
}

TEST(EgolintIncludeTest, SuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/graph/a.h",
       "// egolint: allow-using-namespace(test-only convenience header)\n"
       "using namespace std;\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

// ---- lock-discipline ----------------------------------------------------

TEST(EgolintLockTest, FlagsRawStdMutexOutsideUtil) {
  std::vector<Finding> findings = Lint({
      {"src/net/session.h",
       "#include <mutex>\n"
       "class Session {\n"
       "  std::mutex mu_;\n"
       "};\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "lock-discipline");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("util/mutex.h"), std::string::npos);
  EXPECT_EQ(ExitCodeFor(findings), 1);
}

TEST(EgolintLockTest, FlagsRawSharedMutexToo) {
  std::vector<Finding> findings = Lint({
      {"src/net/entry.h", "struct E {\n  std::shared_mutex mu;\n};\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("shared_mutex"), std::string::npos);
}

TEST(EgolintLockTest, UtilDirectoryMayUseRawMutexes) {
  // util/mutex.h is where the annotated wrappers wrap the raw types.
  std::vector<Finding> findings = Lint({
      {"src/util/mutex.h", "class Mutex {\n  std::mutex mu_;\n};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintLockTest, RawMutexSuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/net/session.h",
       "class Session {\n"
       "  // egolint: allow-raw-mutex(interops with a C callback API)\n"
       "  std::mutex mu_;\n"
       "};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintLockTest, FlagsUnannotatedMemberOfLockOwningClass) {
  std::vector<Finding> findings = Lint({
      {"src/net/cache.h",
       "class Cache {\n"
       "  Mutex mu_;\n"
       "  std::vector<int> entries_ EGO_GUARDED_BY(mu_);\n"
       "  int hits_ = 0;\n"
       "};\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "lock-discipline");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("hits_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Cache"), std::string::npos);
  EXPECT_NE(findings[0].message.find("EGO_GUARDED_BY"), std::string::npos);
}

TEST(EgolintLockTest, NoGuardSuppressionWithReasonSilences) {
  std::vector<Finding> findings = Lint({
      {"src/net/cache.h",
       "class Cache {\n"
       "  Mutex mu_;\n"
       "  // egolint: no-guard(written once before threads start)\n"
       "  int hits_ = 0;\n"
       "};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintLockTest, ReasonlessNoGuardIsAFindingAndDoesNotHide) {
  std::vector<Finding> findings = Lint({
      {"src/net/cache.h",
       "class Cache {\n"
       "  Mutex mu_;\n"
       "  // egolint: no-guard()\n"
       "  int hits_ = 0;\n"
       "};\n"},
  });
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "suppression");
  EXPECT_EQ(findings[1].check, "lock-discipline");
}

TEST(EgolintLockTest, SelfSynchronizingAndConstMembersAreExempt) {
  std::vector<Finding> findings = Lint({
      {"src/net/cache.h",
       "class Cache {\n"
       "  mutable Mutex mu_;\n"
       "  SharedMutex data_mu_;\n"
       "  std::condition_variable cv_;\n"
       "  std::atomic<int> fast_{0};\n"
       "  std::array<std::atomic<int>, 4> tallies_{};\n"
       "  const std::string name_;\n"
       "  static constexpr int kLimit = 8;\n"
       "  int guarded_ EGO_GUARDED_BY(mu_);\n"
       "};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintLockTest, MemberFunctionsAndNestedTypesAreNotMembers) {
  std::vector<Finding> findings = Lint({
      {"src/net/cache.h",
       "class Cache {\n"
       " public:\n"
       "  Cache() : guarded_(0) {}\n"
       "  void Touch() { ++guarded_; }\n"
       "  int Peek() const;\n"
       "  using Clock = std::chrono::steady_clock;\n"
       "  struct Stats { int hits = 0; };\n"
       " private:\n"
       "  Mutex mu_;\n"
       "  int guarded_ EGO_GUARDED_BY(mu_);\n"
       "};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintLockTest, ClassHoldingOnlyACapabilityReferenceIsExempt) {
  // A scoped-lock style class references a capability it does not own;
  // its book-keeping members are owner-thread state, not shared state.
  std::vector<Finding> findings = Lint({
      {"src/net/scoped.h",
       "class Scoped {\n"
       "  Mutex& mu_;\n"
       "  bool held_ = true;\n"
       "};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintLockTest, ClassWithoutALockIsExempt) {
  std::vector<Finding> findings = Lint({
      {"src/net/plain.h", "struct Plain {\n  int x = 0;\n  int y = 0;\n};\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

// ---- suppression audit --------------------------------------------------

TEST(EgolintSuppressionTest, UnknownSuppressionNameIsAFinding) {
  std::vector<Finding> findings = Lint({
      {"src/graph/a.cc", "// egolint: no-such-check(whatever)\nint x;\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "suppression");
  EXPECT_NE(findings[0].message.find("no-such-check"), std::string::npos);
}

TEST(EgolintSuppressionTest, ReasonlessSuppressionIsAFindingAndDoesNotHide) {
  // A reasonless no-checkpoint neither counts as an audit-clean
  // suppression nor silences the loop it sits on.
  std::vector<Finding> findings = Lint({
      {"src/census/fake_engine.cc",
       "void Run() {\n"
       "  // egolint: no-checkpoint()\n"
       "  for (int i = 0; i < num_focal; ++i) Work(focal[i]);\n"
       "}\n"},
  });
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "suppression");
  EXPECT_EQ(findings[1].check, "checkpoint-coverage");
}

// A reasoned no-checkpoint over a loop the check flags, and one over a loop
// that polls (nothing for it to silence).
constexpr const char* kSuppressedLoop =
    "void Run() {\n"
    "  // egolint: no-checkpoint(O(|focal|) flag stores, no match work)\n"
    "  for (int i = 0; i < num_focal; ++i) Mark(focal[i]);\n"
    "}\n";
constexpr const char* kStaleSuppression =
    "void Run() {\n"
    "  // egolint: no-checkpoint(O(|focal|) flag stores, no match work)\n"
    "  for (int i = 0; i < num_focal; ++i) {\n"
    "    if (gov->Checkpoint() != StopReason::kNone) return;\n"
    "    Work(focal[i]);\n"
    "  }\n"
    "}\n";

TEST(EgolintSuppressionTest, SuppressionThatSilencesNothingIsAFinding) {
  std::vector<Finding> findings =
      Lint({{"src/census/fake_engine.cc", kStaleSuppression}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "suppression");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("silences nothing"), std::string::npos);
}

TEST(EgolintSuppressionTest, SuppressionThatSilencesAFindingIsClean) {
  std::vector<Finding> findings =
      Lint({{"src/census/fake_engine.cc", kSuppressedLoop}});
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintSuppressionTest, CheckSubsetSkipsTheUnusedAudit) {
  // Without checkpoint-coverage in the run, nothing can tell whether the
  // no-checkpoint comment still silences a finding.
  LintOptions options;
  options.checks = {"lock-discipline"};
  std::vector<Finding> findings =
      RunLint({{"src/census/fake_engine.cc", kStaleSuppression}}, options);
  EXPECT_EQ(findings.size(), 0u);
}

TEST(EgolintSuppressionTest, ProseMentioningEgolintIsNotASuppression) {
  std::vector<Finding> findings = Lint({
      {"src/graph/a.cc",
       "// This call is checked by egolint: status-discipline covers it.\n"
       "int x;\n"},
  });
  EXPECT_EQ(findings.size(), 0u);
}

// ---- driver plumbing ----------------------------------------------------

TEST(EgolintDriverTest, CheckFilterRunsOnlySelectedChecks) {
  LintOptions options;
  options.checks = {"lock-discipline"};
  std::vector<Finding> findings = RunLint(
      {
          {"src/util/thing.h", "class Status;\nStatus Load();\n"},
          {"src/net/session.h", "class Session {\n  std::mutex mu_;\n};\n"},
      },
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "lock-discipline");
}

TEST(EgolintDriverTest, KnownCheckNames) {
  EXPECT_TRUE(IsKnownCheck("status-discipline"));
  EXPECT_TRUE(IsKnownCheck("checkpoint-coverage"));
  EXPECT_TRUE(IsKnownCheck("include-hygiene"));
  EXPECT_TRUE(IsKnownCheck("request-discipline"));
  EXPECT_TRUE(IsKnownCheck("lock-discipline"));
  EXPECT_FALSE(IsKnownCheck("made-up"));
}

TEST(EgolintDriverTest, FormatAndJsonCarryFileLineCheck) {
  Finding f{"src/a.cc", 7, "lock-discipline", "allow-raw-mutex", "msg"};
  EXPECT_EQ(FormatFinding(f), "src/a.cc:7: [lock-discipline] msg");
  std::string json = FindingsToJson({f});
  EXPECT_NE(json.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

// ---- full-repo smoke ----------------------------------------------------

#ifdef EGOCENSUS_REPO_SRC
TEST(EgolintRepoTest, RepoLintsCleanWithinBudget) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  std::vector<fs::path> roots = {EGOCENSUS_REPO_SRC};
#ifdef EGOCENSUS_REPO_TOOLS
  // The linter's own sources (and the CLI) live by the rules they enforce.
  roots.emplace_back(EGOCENSUS_REPO_TOOLS);
#endif
  for (const fs::path& root : roots) {
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(it->path());
      std::ostringstream content;
      content << in.rdbuf();
      files.push_back(SourceFile{it->path().generic_string(), content.str()});
    }
  }
  ASSERT_GT(files.size(), 50u) << "repo scan found suspiciously few files";

  auto begin = std::chrono::steady_clock::now();
  std::vector<Finding> findings = Lint(std::move(files));
  auto elapsed = std::chrono::steady_clock::now() - begin;

  for (const Finding& f : findings) {
    ADD_FAILURE() << FormatFinding(f);
  }
  EXPECT_EQ(ExitCodeFor(findings), 0);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000)
      << "full-repo lint must stay inside the 2s CI smoke budget";
}
#endif  // EGOCENSUS_REPO_SRC

}  // namespace
}  // namespace egolint
