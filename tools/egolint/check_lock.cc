// lock-discipline: the locking protocol is a compile-time contract under
// clang (-Wthread-safety over the annotations in util/thread_annotations.h),
// but GCC builds compile the annotations away. This check keeps the contract
// honest on every compiler with two token-level rules:
//
//  1. Raw standard mutexes (std::mutex, std::shared_mutex, and friends)
//     outside src/util/ are findings — locked subsystems must use the
//     annotated egocensus::Mutex / SharedMutex wrappers from util/mutex.h,
//     or the clang analysis silently sees nothing to analyze
//     (suppression: allow-raw-mutex).
//
//  2. Any class that OWNS a lock capability (a by-value Mutex / SharedMutex
//     member) must annotate every other mutable member variable with
//     EGO_GUARDED_BY / EGO_PT_GUARDED_BY, naming the capability that guards
//     it. Members that synchronize themselves (std::atomic, condition
//     variables), leading-`const` value members, and `static` members are
//     exempt. Everything else either names its guard or carries an audited
//     `// egolint: no-guard(<why>)` suppression — the suppression is the
//     paper trail for deliberate lock-free protocols and lifecycle-only
//     members (see net/server.h's thread handles) (suppression: no-guard).
//
// The member parse is deliberately shallow: a declaration is a member
// *variable* when its head (tokens before `=` / `{` / `;`) has no
// parenthesis at angle-bracket depth zero other than an annotation macro's
// argument list. That discriminates fields from functions, constructors,
// and nested types without a real parser, which matches the rest of
// egolint's design (docs/STATIC_ANALYSIS.md).

#include <string>

#include "analysis.h"
#include "egolint.h"

namespace egolint::internal {

namespace {

bool IsRawMutexName(std::string_view name) {
  return name == "mutex" || name == "shared_mutex" ||
         name == "recursive_mutex" || name == "timed_mutex" ||
         name == "recursive_timed_mutex" || name == "shared_timed_mutex";
}

/// Annotation macros whose argument list may legally appear in a member
/// declaration's head without making it a function.
bool IsMemberAnnotation(std::string_view name) {
  return name == "EGO_GUARDED_BY" || name == "EGO_PT_GUARDED_BY" ||
         name == "EGO_ACQUIRED_BEFORE" || name == "EGO_ACQUIRED_AFTER";
}

bool IsClassKey(std::string_view name) {
  return name == "class" || name == "struct" || name == "union";
}

/// Declarations led by these keywords are never member variables.
bool IsNonMemberLead(std::string_view name) {
  return name == "using" || name == "typedef" || name == "friend" ||
         name == "template" || name == "static" || name == "enum" ||
         IsClassKey(name);
}

/// One parsed member declaration inside a class body.
struct MemberDecl {
  int begin = 0;  // token index of the first declaration token
  int end = 0;    // exclusive
  int line = 0;
  std::string name;       // last declarator identifier in the head
  bool is_variable = false;
  bool owns_capability = false;  // by-value Mutex / SharedMutex
  bool exempt = false;           // atomic / cv / leading-const / capability
  bool annotated = false;        // EGO_GUARDED_BY / EGO_PT_GUARDED_BY
};

/// Parses the top level of a class body ([begin, end) token range) into
/// member declarations. Nested type definitions and function bodies are
/// skipped as opaque units; nested classes are analyzed by the outer loop,
/// which visits every class-key token in the file.
std::vector<MemberDecl> ParseMembers(const std::vector<Token>& toks,
                                     int begin, int end) {
  std::vector<MemberDecl> members;
  int i = begin;
  while (i < end) {
    // Access specifiers.
    if (toks[i].kind == TokenKind::kIdent &&
        (TokIs(toks[i], "public") || TokIs(toks[i], "private") ||
         TokIs(toks[i], "protected")) &&
        i + 1 < end && TokIs(toks[i + 1], ":")) {
      i += 2;
      continue;
    }
    if (TokIs(toks[i], ";")) {  // stray semicolon
      ++i;
      continue;
    }

    MemberDecl decl;
    decl.begin = i;
    decl.line = toks[i].line;
    const bool skippable_lead =
        toks[i].kind == TokenKind::kIdent && IsNonMemberLead(toks[i].text);
    const bool static_lead =
        toks[i].kind == TokenKind::kIdent && TokIs(toks[i], "static");
    const bool const_lead =
        toks[i].kind == TokenKind::kIdent && TokIs(toks[i], "const");

    int angle = 0;
    bool in_head = true;
    bool is_func = false;
    bool saw_annotation_ident = false;
    bool head_has_pointer = false;
    bool head_has_ref = false;
    bool capability_ident = false;
    bool exempt_type = false;

    while (i < end) {
      const Token& t = toks[i];
      if (in_head) {
        if (t.kind == TokenKind::kIdent) {
          if (IsMemberAnnotation(t.text)) {
            saw_annotation_ident = true;
            if (t.text == "EGO_GUARDED_BY" || t.text == "EGO_PT_GUARDED_BY") {
              decl.annotated = true;
            }
          } else if (TokIs(t, "operator")) {
            is_func = true;
          } else if (!saw_annotation_ident) {
            // Self-synchronizing types exempt the member at any template
            // depth: std::array<std::atomic<...>, N> is as lock-free as a
            // bare atomic.
            if (t.text == "atomic" ||
                t.text.rfind("atomic_", 0) == 0 ||
                t.text == "condition_variable" ||
                t.text == "condition_variable_any") {
              exempt_type = true;
            }
            if (angle == 0) {
              if (TokIs(t, "Mutex") || TokIs(t, "SharedMutex")) {
                capability_ident = true;
              }
              decl.name = std::string(t.text);
            }
          }
        } else if (TokIs(t, "<")) {
          ++angle;
        } else if (TokIs(t, ">")) {
          if (angle > 0) --angle;
        } else if (TokIs(t, "(") && angle == 0) {
          if (i > decl.begin && toks[i - 1].kind == TokenKind::kIdent &&
              IsMemberAnnotation(toks[i - 1].text)) {
            i = MatchForward(toks, i, "(", ")");
            continue;
          }
          is_func = true;
        } else if (angle == 0 && TokIs(t, "*")) {
          head_has_pointer = true;
        } else if (angle == 0 && TokIs(t, "&")) {
          head_has_ref = true;
        } else if (TokIs(t, "=")) {
          in_head = false;
        }
      }
      if (TokIs(t, "{")) {
        int close = MatchForward(toks, i, "{", "}");
        if (is_func || skippable_lead) {
          // Function body or nested type definition: opaque unit. A nested
          // type carries a trailing `;`, a function body does not.
          i = close;
          if (i < end && TokIs(toks[i], ";")) ++i;
          break;
        }
        // Braced member initializer — part of the declaration.
        i = close;
        in_head = false;
        continue;
      }
      if (TokIs(t, ";")) {
        ++i;
        break;
      }
      ++i;
    }
    decl.end = i;

    decl.is_variable = !is_func && !skippable_lead;
    decl.owns_capability =
        decl.is_variable && capability_ident && !head_has_pointer &&
        !head_has_ref;
    decl.exempt = exempt_type || capability_ident || static_lead ||
                  (const_lead && !head_has_pointer);
    if (decl.is_variable) members.push_back(std::move(decl));
  }
  return members;
}

/// For a class-key token at `i`, locates the definition's body and name.
/// Returns false for template parameters, elaborated-type uses, forward
/// declarations, and `enum class`.
bool FindClassBody(const std::vector<Token>& toks, int i, std::string* name,
                   int* body_begin, int* body_end) {
  if (i > 0 && (TokIs(toks[i - 1], "<") || TokIs(toks[i - 1], ",") ||
                TokIs(toks[i - 1], "(") || TokIs(toks[i - 1], "enum"))) {
    return false;
  }
  const int n = static_cast<int>(toks.size());
  name->clear();
  for (int j = i + 1; j < n; ++j) {
    const Token& t = toks[j];
    if (TokIs(t, "(")) {  // attribute macro, e.g. EGO_CAPABILITY("mutex")
      j = MatchForward(toks, j, "(", ")") - 1;
      continue;
    }
    if (t.kind == TokenKind::kIdent) {
      *name = std::string(t.text);
      continue;
    }
    if (TokIs(t, "::")) continue;
    if (TokIs(t, ":")) {  // base clause: name is fixed, scan on to the brace
      for (int k = j + 1; k < n; ++k) {
        if (TokIs(toks[k], "{")) {
          *body_begin = k + 1;
          *body_end = MatchForward(toks, k, "{", "}") - 1;
          return !name->empty();
        }
        if (TokIs(toks[k], ";")) return false;
      }
      return false;
    }
    if (TokIs(t, "{")) {
      *body_begin = j + 1;
      *body_end = MatchForward(toks, j, "{", "}") - 1;
      return !name->empty();
    }
    return false;  // `;`, `*`, `&`, `>` … — not a definition
  }
  return false;
}

}  // namespace

void CheckLockDiscipline(const std::vector<FileModel>& models,
                         std::vector<Finding>* findings) {
  for (const FileModel& model : models) {
    const std::string& path = model.source->path;
    const std::vector<Token>& toks = model.tokens;
    const int n = static_cast<int>(toks.size());

    // Rule 1: raw standard mutex types outside src/util/ (util owns the
    // annotated wrappers, so it is the one place the raw types may live).
    if (path.find("src/util/") == std::string::npos) {
      for (int i = 0; i + 2 < n; ++i) {
        if (toks[i].kind == TokenKind::kIdent && TokIs(toks[i], "std") &&
            TokIs(toks[i + 1], "::") &&
            toks[i + 2].kind == TokenKind::kIdent &&
            IsRawMutexName(toks[i + 2].text)) {
          findings->push_back(Finding{
              path, toks[i].line, "lock-discipline", "allow-raw-mutex",
              "raw std::" + std::string(toks[i + 2].text) +
                  " — use the annotated egocensus wrappers in util/mutex.h "
                  "so clang's thread-safety analysis sees the lock"});
        }
      }
    }

    // Rule 2: lock-owning classes must annotate their mutable members.
    for (int i = 0; i < n; ++i) {
      if (toks[i].kind != TokenKind::kIdent || !IsClassKey(toks[i].text)) {
        continue;
      }
      std::string class_name;
      int body_begin = 0;
      int body_end = 0;
      if (!FindClassBody(toks, i, &class_name, &body_begin, &body_end)) {
        continue;
      }
      std::vector<MemberDecl> members =
          ParseMembers(toks, body_begin, body_end);
      bool owns_lock = false;
      for (const MemberDecl& m : members) {
        if (m.owns_capability) {
          owns_lock = true;
          break;
        }
      }
      if (!owns_lock) continue;
      for (const MemberDecl& m : members) {
        if (m.exempt || m.annotated) continue;
        findings->push_back(Finding{
            path, m.line, "lock-discipline", "no-guard",
            "member '" + m.name + "' of lock-owning class '" + class_name +
                "' names no guard — annotate it EGO_GUARDED_BY(<capability>)"
                " or record why it is safe with no-guard(<reason>)"});
      }
    }
  }
}

}  // namespace egolint::internal
