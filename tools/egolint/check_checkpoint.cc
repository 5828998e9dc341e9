// checkpoint-coverage: loops in the census/match/dynamic execution paths
// that can iterate over focal nodes, matches, clusters, or update streams
// must reach a Governor checkpoint. "Reach" is deliberately one hop deep:
// a loop passes when its header or body polls directly (`Checkpoint`,
// `ParallelFor`, `stopped`), calls a function or named lambda whose own
// body polls directly, or sits lexically inside a loop that passes. A poll
// buried two calls deep bounds nothing about this loop's iteration latency,
// so it needs an audited `// egolint: no-checkpoint(reason)` instead.
//
// One structural exemption: loops inside a *driven* function. The engines
// split work as `driver loop { Checkpoint(); kernel(item); }`, so the
// per-item loops inside the kernel are bounded by the driver's per-item
// poll. Driven-ness seeds from calls made lexically inside a loop that
// polls, and from kernels handed to a *driver* — a function whose body
// calls Checkpoint() inside a loop (the census drivers in
// census/engines.h): a lambda written inline in a call to a driver is
// driven, and so is a function or named lambda passed to one by name. It
// propagates through calls in driven bodies of checked files only, so a
// same-named function elsewhere (a `Run` in src/lang) does not carry it
// into the census code it calls. It deliberately does NOT seed from
// ParallelFor arguments — ParallelFor polls once per chunk, and the
// explicit in-loop Checkpoint inside the chunk callback is what tightens
// that to per-item, which is exactly what this check defends. Removing
// that poll unroots the whole driven chain.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis.h"
#include "egolint.h"

namespace egolint::internal {

namespace {

const char* const kWatchedStems[] = {"focal",    "match",   "cluster",
                                     "update",   "frontier", "pending"};

bool IsWatchedIdent(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (const char* stem : kWatchedStems) {
    if (lower.find(stem) != std::string::npos) return true;
  }
  return false;
}

/// The execution paths' sources, headers included: their templates (the
/// drivers' kernels, the anchor-coverage scan) hold loops too.
bool InCheckedDir(const std::string& path) {
  if (!path.ends_with(".cc") && !path.ends_with(".h")) return false;
  return path.find("src/census/") != std::string::npos ||
         path.find("src/match/") != std::string::npos ||
         path.find("src/dynamic/") != std::string::npos;
}

struct Loop {
  int kw_index = 0;      // the for/while/do token
  int range_begin = 0;   // header + body token range (inclusive begin)
  int range_end = 0;     // exclusive end
  bool passes = false;   // polls directly or via a one-hop call
};

/// Token range [begin, end) polls when it names Checkpoint / ParallelFor /
/// stopped, or calls a function in `polling`.
bool RangePolls(const std::vector<Token>& toks, int begin, int end,
                const std::set<std::string>& polling) {
  for (int i = begin; i < end; ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if (toks[i].text == "Checkpoint" || toks[i].text == "ParallelFor" ||
        toks[i].text == "stopped") {
      return true;
    }
    if (i + 1 < end && TokIs(toks[i + 1], "(") &&
        polling.count(std::string(toks[i].text)) != 0) {
      return true;
    }
  }
  return false;
}

bool RangeWatched(const std::vector<Token>& toks, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    if (toks[i].kind == TokenKind::kIdent && IsWatchedIdent(toks[i].text)) {
      return true;
    }
  }
  return false;
}

/// The kernels a call hands over: for the call whose `(` is at `open`,
/// the body ranges of the lambdas written inline as arguments (into
/// `lambda_bodies`) and the names passed as whole arguments (into `names`).
void CollectCallArguments(const std::vector<Token>& toks, int open,
                          std::vector<std::pair<int, int>>* lambda_bodies,
                          std::set<std::string>* names) {
  const int close = MatchForward(toks, open, "(", ")") - 1;
  int depth = 0;
  for (int i = open + 1; i < close; ++i) {
    const bool arg_start =
        depth == 0 && (i == open + 1 || TokIs(toks[i - 1], ","));
    if (arg_start && TokIs(toks[i], "[")) {
      int j = MatchForward(toks, i, "[", "]");
      if (j < close && TokIs(toks[j], "(")) j = MatchForward(toks, j, "(", ")");
      while (j < close && !TokIs(toks[j], "{")) ++j;
      if (j < close) {
        const int body_end = MatchForward(toks, j, "{", "}");
        lambda_bodies->emplace_back(j + 1, body_end - 1);
        i = body_end - 1;
        continue;
      }
    }
    if (arg_start && toks[i].kind == TokenKind::kIdent &&
        (i + 1 == close || TokIs(toks[i + 1], ","))) {
      names->insert(std::string(toks[i].text));
    }
    if (TokIs(toks[i], "(") || TokIs(toks[i], "[") || TokIs(toks[i], "{")) {
      ++depth;
    } else if (TokIs(toks[i], ")") || TokIs(toks[i], "]") ||
               TokIs(toks[i], "}")) {
      --depth;
    }
  }
}

/// Statement end for a brace-less loop body: the first `;` at relative
/// parenthesis depth zero.
int SkipStatement(const std::vector<Token>& toks, int i) {
  int depth = 0;
  for (; i < static_cast<int>(toks.size()); ++i) {
    if (TokIs(toks[i], "(")) ++depth;
    if (TokIs(toks[i], ")")) --depth;
    if (TokIs(toks[i], "{")) return MatchForward(toks, i, "{", "}");
    if (TokIs(toks[i], ";") && depth <= 0) return i + 1;
  }
  return i;
}

}  // namespace

void CheckCheckpointCoverage(const std::vector<FileModel>& models,
                             std::vector<Finding>* findings) {
  // Directly-polling functions, collected across every scanned file so an
  // engine loop calling a matcher entry point defined elsewhere is covered.
  std::set<std::string> polling;
  std::vector<std::pair<const FileModel*, std::vector<FunctionDef>>> defs;
  defs.reserve(models.size());
  for (const FileModel& model : models) {
    defs.emplace_back(&model, ExtractFunctions(model));
    for (const FunctionDef& def : defs.back().second) {
      if (RangePolls(model.tokens, def.body_begin, def.body_end, {})) {
        polling.insert(def.name);
      }
    }
  }

  // Per-file loop extraction, shared by driven-ness seeding and the
  // findings pass below.
  auto extract_loops = [](const std::vector<Token>& toks) {
    std::vector<Loop> loops;
    for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
      if (toks[i].kind != TokenKind::kIdent) continue;
      bool is_do = toks[i].text == "do";
      bool is_loop = is_do || toks[i].text == "for" || toks[i].text == "while";
      if (!is_loop) continue;
      Loop loop;
      loop.kw_index = i;
      if (is_do) {
        loop.range_begin = i + 1;
        loop.range_end = SkipStatement(toks, i + 1);
      } else {
        if (i + 1 >= static_cast<int>(toks.size()) ||
            !TokIs(toks[i + 1], "(")) {
          continue;  // do-while's trailing `while` was already consumed
        }
        loop.range_begin = i + 1;
        int after_header = MatchForward(toks, i + 1, "(", ")");
        loop.range_end = SkipStatement(toks, after_header);
      }
      loops.push_back(loop);
    }
    return loops;
  };

  // Drivers: functions whose body calls Checkpoint() inside a loop, i.e.
  // poll once per item (ParallelFor polls per chunk and is not one).
  std::set<std::string> drivers;
  for (const auto& [model, file_defs] : defs) {
    const std::vector<Token>& toks = model->tokens;
    for (const Loop& loop : extract_loops(toks)) {
      bool checkpoints = false;
      for (int i = loop.range_begin; i < loop.range_end && !checkpoints; ++i) {
        checkpoints = TokIs(toks[i], "Checkpoint");
      }
      if (!checkpoints) continue;
      for (const FunctionDef& def : file_defs) {
        if (def.body_begin <= loop.kw_index && loop.kw_index < def.body_end) {
          drivers.insert(def.name);
        }
      }
    }
  }

  // Driven functions: seed with every call made lexically inside a polling
  // loop and with the kernels handed to a driver (lambda bodies written
  // inline in the call, per file; names passed as arguments), then close
  // over calls made inside driven bodies in the checked files (name-level,
  // cross-file — PT-OPT's driven kernel calling Expand covers the loops in
  // pt_expander.cc).
  std::set<std::string> driven;
  std::map<const FileModel*, std::vector<std::pair<int, int>>> driven_lambdas;
  auto add_calls = [&driven](const std::vector<Token>& toks, int begin,
                             int end) {
    bool added = false;
    for (int i = begin; i + 1 < end; ++i) {
      if (toks[i].kind == TokenKind::kIdent && TokIs(toks[i + 1], "(") &&
          driven.insert(std::string(toks[i].text)).second) {
        added = true;
      }
    }
    return added;
  };
  for (const auto& [model, file_defs] : defs) {
    const std::vector<Token>& toks = model->tokens;
    for (const Loop& loop : extract_loops(toks)) {
      if (RangePolls(toks, loop.range_begin, loop.range_end, polling)) {
        add_calls(toks, loop.range_begin, loop.range_end);
      }
    }
    for (int i = 0; i + 1 < static_cast<int>(toks.size()); ++i) {
      if (toks[i].kind == TokenKind::kIdent && TokIs(toks[i + 1], "(") &&
          drivers.count(std::string(toks[i].text)) != 0) {
        CollectCallArguments(toks, i + 1, &driven_lambdas[model], &driven);
      }
    }
    for (const auto& [begin, end] : driven_lambdas[model]) {
      add_calls(toks, begin, end);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [model, file_defs] : defs) {
      if (!InCheckedDir(model->source->path)) continue;
      const std::vector<Token>& toks = model->tokens;
      for (const FunctionDef& def : file_defs) {
        if (driven.count(def.name) == 0) continue;
        if (add_calls(toks, def.body_begin, def.body_end)) changed = true;
      }
    }
  }

  for (const auto& [model_ptr, file_defs] : defs) {
    const FileModel& model = *model_ptr;
    if (!InCheckedDir(model.source->path)) continue;
    const std::vector<Token>& toks = model.tokens;
    std::vector<Loop> loops = extract_loops(toks);
    for (Loop& loop : loops) {
      loop.passes = RangePolls(toks, loop.range_begin, loop.range_end, polling);
    }
    for (const Loop& loop : loops) {
      if (loop.passes) continue;
      if (!RangeWatched(toks, loop.range_begin, loop.range_end)) continue;
      bool covered_by_ancestor = false;
      for (const Loop& outer : loops) {
        if (outer.passes && outer.range_begin <= loop.kw_index &&
            loop.range_end <= outer.range_end) {
          covered_by_ancestor = true;
          break;
        }
      }
      if (covered_by_ancestor) continue;
      bool in_driven_fn = false;
      for (const FunctionDef& def : file_defs) {
        if (def.body_begin <= loop.kw_index && loop.kw_index < def.body_end &&
            driven.count(def.name) != 0) {
          in_driven_fn = true;
          break;
        }
      }
      for (const auto& [begin, end] : driven_lambdas[&model]) {
        if (begin <= loop.kw_index && loop.kw_index < end) in_driven_fn = true;
      }
      if (in_driven_fn) continue;
      findings->push_back(Finding{
          model.source->path, toks[loop.kw_index].line, "checkpoint-coverage",
          "no-checkpoint",
          "loop iterates over focal nodes/matches/clusters/updates without "
          "reaching a Governor Checkpoint() poll"});
    }
  }
}

}  // namespace egolint::internal
