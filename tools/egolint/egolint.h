#ifndef EGOCENSUS_TOOLS_EGOLINT_EGOLINT_H_
#define EGOCENSUS_TOOLS_EGOLINT_EGOLINT_H_

// egolint — a token-level static-analysis pass over the egocensus sources
// enforcing project invariants that the compiler cannot see (see
// docs/STATIC_ANALYSIS.md). No libclang: a hand-rolled C++ lexer feeds five
// named checks, each suppressible per line with an audited
// `// egolint: <suppression>(<reason>)` comment:
//
//  * status-discipline   — every function returning Status/Result is
//                          [[nodiscard]] (suppression: no-nodiscard) and no
//                          statement discards such a call's result
//                          (suppression: allow-discard).
//  * checkpoint-coverage — loops in src/census/, src/match/, src/dynamic/
//                          that can iterate over focal nodes, matches, or
//                          clusters must reach a Governor checkpoint
//                          (suppression: no-checkpoint).
//  * include-hygiene     — no include cycles among src/ headers
//                          (suppression: allow-include) and no
//                          `using namespace` in headers
//                          (suppression: allow-using-namespace).
//  * request-discipline  — request handlers (Handle*) in src/net/ must
//                          route through RequestContext so every request
//                          carries an id and telemetry
//                          (suppression: no-request-context); BUSY/ERROR
//                          frames in src/net/ must be composed by the
//                          request_context.h helpers, never by bare
//                          `= FrameType::kBusy/kError` assignment
//                          (suppression: allow-bare-response).
//  * lock-discipline     — raw std::mutex / std::shared_mutex outside
//                          src/util/ must be the annotated egocensus
//                          wrappers from util/mutex.h (suppression:
//                          allow-raw-mutex); a class owning a Mutex /
//                          SharedMutex capability must annotate every
//                          mutable member EGO_GUARDED_BY or record why it
//                          is safe (suppression: no-guard). Keeps the
//                          clang -Wthread-safety contract honest on
//                          compilers that compile the annotations away.
//
// A suppression with an empty reason, with a name no check owns, or — when
// every check ran — that silences no finding is itself a finding (check
// "suppression") — the escape hatch stays audited.

#include <string>
#include <string_view>
#include <vector>

namespace egolint {

/// One input file. `path` should be repo-relative (e.g. "src/graph/io.cc");
/// the checks classify files by path substring, and the include-cycle check
/// resolves quoted includes against the path's "src/" prefix.
struct SourceFile {
  std::string path;
  std::string content;
};

enum class TokenKind { kIdent, kNumber, kString, kChar, kPunct };

/// One code token. Comments and preprocessor lines are not tokens: the
/// lexer folds them into suppressions and includes.
struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string_view text;  // view into SourceFile::content
  int line = 0;
};

/// A `// egolint: name(reason)` comment.
struct Suppression {
  std::string name;
  std::string reason;
  int line = 0;
};

/// A quoted `#include "target"`.
struct IncludeEdge {
  std::string target;
  int line = 0;
};

/// Lexed view of one source file, shared by all checks.
struct FileModel {
  const SourceFile* source = nullptr;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<IncludeEdge> includes;
};

/// One reported violation. `suppression` names the comment that would
/// silence it; the driver consumes matching suppressions before reporting.
struct Finding {
  std::string file;
  int line = 0;
  std::string check;        // "status-discipline", ...
  std::string suppression;  // "allow-discard", ...
  std::string message;
};

struct LintOptions {
  /// Empty = run every check. Otherwise names from: status-discipline,
  /// checkpoint-coverage, include-hygiene, request-discipline,
  /// lock-discipline.
  std::vector<std::string> checks;
};

/// Lexes one file into the model the checks consume.
FileModel Lex(const SourceFile& file);

/// Runs the selected checks over `files` and returns surviving findings
/// (line-level suppressions already applied), including "suppression"
/// findings for reasonless or unknown suppression comments and, when every
/// check ran, for reasoned ones that silenced nothing.
std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                             const LintOptions& options);

/// "path:line: [check] message" – one line per finding.
std::string FormatFinding(const Finding& finding);

/// Findings rendered as a JSON report (CI artifact).
std::string FindingsToJson(const std::vector<Finding>& findings);

/// 0 = clean, 1 = findings.
int ExitCodeFor(const std::vector<Finding>& findings);

/// True for the five check names accepted by LintOptions / --check.
bool IsKnownCheck(const std::string& name);

namespace internal {

/// A function or named-lambda definition: `name` plus the token index range
/// of its brace-balanced body (exclusive end). Used to build the set of
/// directly-polling functions for checkpoint-coverage.
struct FunctionDef {
  std::string name;
  int body_begin = 0;
  int body_end = 0;
};

/// Extracts function/lambda definitions from a lexed file.
std::vector<FunctionDef> ExtractFunctions(const FileModel& model);

void CheckStatusDiscipline(const std::vector<FileModel>& models,
                           std::vector<Finding>* findings);
void CheckCheckpointCoverage(const std::vector<FileModel>& models,
                             std::vector<Finding>* findings);
void CheckIncludeHygiene(const std::vector<FileModel>& models,
                         std::vector<Finding>* findings);
void CheckRequestDiscipline(const std::vector<FileModel>& models,
                            std::vector<Finding>* findings);
void CheckLockDiscipline(const std::vector<FileModel>& models,
                         std::vector<Finding>* findings);

}  // namespace internal

}  // namespace egolint

#endif  // EGOCENSUS_TOOLS_EGOLINT_EGOLINT_H_
