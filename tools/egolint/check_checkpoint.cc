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
// poll. A call site is driven when it sits lexically inside a loop that
// polls, inside a kernel handed to a *driver* — a function whose body
// calls Checkpoint() inside a loop (the census drivers in
// census/engines.h) — or inside the body of a driven function in a
// checked file; a function or named lambda passed to a driver by name is
// a driven site too. A function is driven when it has a driven site and
// every call site of its name in the checked files, other than its own
// recursive calls, is driven: a second caller that polls nothing leaves
// the function's loops checked. Driven-ness propagates through checked
// files only, so a same-named function elsewhere (a `Run` in src/lang)
// does not carry it into the census code it calls. It deliberately does
// NOT seed from ParallelFor arguments — ParallelFor polls once per chunk,
// and the explicit in-loop Checkpoint inside the chunk callback is what
// tightens that to per-item, which is exactly what this check defends.
// Removing that poll unroots the whole driven chain.

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
  std::vector<std::pair<const FileModel*, ScopeInfo>> scopes;
  scopes.reserve(models.size());
  for (const FileModel& model : models) {
    scopes.emplace_back(&model, AnalyzeScopes(model));
    for (const FunctionDef& def : scopes.back().second.defs) {
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
  for (const auto& [model, info] : scopes) {
    const std::vector<FunctionDef>& file_defs = info.defs;
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

  // Call sites: every `name(` in a function body, and every name handed to
  // a driver as a whole argument. A site is seeded (driven whatever else
  // is) inside a polling loop or a kernel lambda written inline in a
  // driver call, or when it hands the name to a driver; a site in a
  // checked file is also driven inside the body of a driven function.
  struct CallSite {
    int name = 0;
    bool checked = false;
    bool seeded = false;
    std::vector<int> enclosing;  // functions whose bodies hold the site
  };
  std::map<std::string, int> ids;
  auto id_of = [&ids](std::string_view name) {
    return ids.emplace(std::string(name), static_cast<int>(ids.size()))
        .first->second;
  };
  std::vector<CallSite> sites;
  std::map<const FileModel*, std::vector<std::pair<int, int>>> driven_lambdas;
  for (const auto& [model, info] : scopes) {
    const std::vector<Token>& toks = model->tokens;
    const bool checked = InCheckedDir(model->source->path);
    std::vector<std::pair<int, int>> seeded_ranges;
    for (const Loop& loop : extract_loops(toks)) {
      if (RangePolls(toks, loop.range_begin, loop.range_end, polling)) {
        seeded_ranges.emplace_back(loop.range_begin, loop.range_end);
      }
    }
    std::vector<std::pair<int, int>>& lambdas = driven_lambdas[model];
    for (int i = 0; i + 1 < static_cast<int>(toks.size()); ++i) {
      if (toks[i].kind == TokenKind::kIdent && TokIs(toks[i + 1], "(") &&
          drivers.count(std::string(toks[i].text)) != 0) {
        std::set<std::string> passed;
        CollectCallArguments(toks, i + 1, &lambdas, &passed);
        for (const std::string& name : passed) {
          sites.push_back(CallSite{id_of(name), checked, true, {}});
        }
      }
    }
    seeded_ranges.insert(seeded_ranges.end(), lambdas.begin(), lambdas.end());
    for (int i = 0; i + 1 < static_cast<int>(toks.size()); ++i) {
      if (toks[i].kind != TokenKind::kIdent || !TokIs(toks[i + 1], "(") ||
          info.scope[i] != Scope::kBody) {
        continue;
      }
      CallSite site{id_of(toks[i].text), checked, false, {}};
      for (const auto& [begin, end] : seeded_ranges) {
        if (begin <= i && i < end) site.seeded = true;
      }
      if (checked) {
        for (const FunctionDef& def : info.defs) {
          if (def.body_begin <= i && i < def.body_end) {
            site.enclosing.push_back(id_of(def.name));
          }
        }
      }
      sites.push_back(std::move(site));
    }
  }

  // The least set of driven functions: grow it until every function with
  // a driven site and no undriven checked site (its own recursive calls
  // aside) is in it. Sites only become driven as the set grows, so the
  // loop ends.
  std::vector<char> is_driven(ids.size(), 0);
  for (bool changed = true; changed;) {
    changed = false;
    std::vector<char> reached(ids.size(), 0);
    std::vector<char> blocked(ids.size(), 0);
    for (const CallSite& site : sites) {
      bool driven_site = site.seeded;
      bool recursive = false;
      for (int fn : site.enclosing) {
        if (is_driven[fn]) driven_site = true;
        if (fn == site.name) recursive = true;
      }
      if (driven_site) {
        reached[site.name] = 1;
      } else if (site.checked && !recursive) {
        blocked[site.name] = 1;
      }
    }
    for (std::size_t fn = 0; fn < ids.size(); ++fn) {
      if (!is_driven[fn] && reached[fn] && !blocked[fn]) {
        is_driven[fn] = 1;
        changed = true;
      }
    }
  }
  std::set<std::string> driven;
  for (const auto& [name, id] : ids) {
    if (is_driven[id]) driven.insert(name);
  }

  for (const auto& [model_ptr, info] : scopes) {
    const FileModel& model = *model_ptr;
    const std::vector<FunctionDef>& file_defs = info.defs;
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
