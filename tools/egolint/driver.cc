// egolint driver: lexes every input, dispatches the enabled checks,
// applies line-level suppressions, and audits the suppressions themselves
// (reasonless, unknown, or — when every check ran — silencing nothing are
// findings, so the escape hatch cannot silently rot).

#include <algorithm>
#include <set>
#include <string>

#include "analysis.h"
#include "egolint.h"

namespace egolint {

namespace {

const char* const kKnownChecks[] = {"status-discipline", "checkpoint-coverage",
                                    "include-hygiene", "request-discipline",
                                    "lock-discipline"};

const char* const kKnownSuppressions[] = {
    "no-nodiscard",       "allow-discard",       "no-checkpoint",
    "allow-using-namespace", "allow-include",    "no-request-context",
    "allow-bare-response", "allow-raw-mutex",    "no-guard"};

bool Enabled(const LintOptions& options, const std::string& check) {
  if (options.checks.empty()) return true;
  return std::find(options.checks.begin(), options.checks.end(), check) !=
         options.checks.end();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                             const LintOptions& options) {
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& f : files) models.push_back(Lex(f));

  std::vector<Finding> raw;
  if (Enabled(options, "status-discipline")) {
    internal::CheckStatusDiscipline(models, &raw);
  }
  if (Enabled(options, "checkpoint-coverage")) {
    internal::CheckCheckpointCoverage(models, &raw);
  }
  if (Enabled(options, "include-hygiene")) {
    internal::CheckIncludeHygiene(models, &raw);
  }
  if (Enabled(options, "request-discipline")) {
    internal::CheckRequestDiscipline(models, &raw);
  }
  if (Enabled(options, "lock-discipline")) {
    internal::CheckLockDiscipline(models, &raw);
  }

  // A suppression silences a finding of its kind on the same line or the
  // line below it (comment-above style) — but only when it carries a
  // written reason.
  std::set<const Suppression*> used;
  std::vector<Finding> out;
  for (Finding& f : raw) {
    const Suppression* silencer = nullptr;
    if (!f.suppression.empty()) {
      for (const FileModel& model : models) {
        if (model.source->path != f.file) continue;
        for (const Suppression& sup : model.suppressions) {
          if (sup.name == f.suppression && !sup.reason.empty() &&
              (sup.line == f.line || sup.line == f.line - 1)) {
            silencer = &sup;
            break;
          }
        }
        break;
      }
    }
    if (silencer != nullptr) {
      used.insert(silencer);
    } else {
      out.push_back(std::move(f));
    }
  }

  // Audit the suppression comments themselves. Only a run of every check
  // (no --check filter) can tell that a suppression silences nothing.
  std::set<std::string> known(std::begin(kKnownSuppressions),
                              std::end(kKnownSuppressions));
  for (const FileModel& model : models) {
    for (const Suppression& sup : model.suppressions) {
      if (known.find(sup.name) == known.end()) {
        out.push_back(Finding{model.source->path, sup.line, "suppression", "",
                              "unknown egolint suppression '" + sup.name +
                                  "'"});
      } else if (sup.reason.empty()) {
        out.push_back(Finding{model.source->path, sup.line, "suppression", "",
                              "egolint suppression '" + sup.name +
                                  "' must carry a written reason: " +
                                  "// egolint: " + sup.name + "(<why>)"});
      } else if (options.checks.empty() && used.count(&sup) == 0) {
        out.push_back(Finding{model.source->path, sup.line, "suppression", "",
                              "egolint suppression '" + sup.name +
                                  "' silences nothing; delete it"});
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return out;
}

std::string FormatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.check + "] " +
         f.message;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "{\n  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "    {\"file\": \"" + JsonEscape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"check\": \"" +
           JsonEscape(f.check) + "\", \"suppression\": \"" +
           JsonEscape(f.suppression) + "\", \"message\": \"" +
           JsonEscape(f.message) + "\"}";
    if (i + 1 < findings.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"count\": " + std::to_string(findings.size()) + "\n}\n";
  return out;
}

int ExitCodeFor(const std::vector<Finding>& findings) {
  return findings.empty() ? 0 : 1;
}

bool IsKnownCheck(const std::string& name) {
  for (const char* c : kKnownChecks) {
    if (name == c) return true;
  }
  return false;
}

}  // namespace egolint
