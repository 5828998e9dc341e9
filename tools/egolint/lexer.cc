// Lexer for egolint: turns C++ source into code tokens plus the side
// channels the checks need (suppression comments and quoted includes).
// Token text is a view into the
// SourceFile's content, so the model is cheap enough to lex the whole repo
// per run.

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>

#include "egolint.h"

namespace egolint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses a suppression out of a `// egolint: name(reason)` comment. The
/// marker must start the comment so prose that merely mentions
/// "egolint: foo" is not treated as a suppression.
void ParseSuppression(std::string_view comment, int line, FileModel* model) {
  std::size_t at = 0;
  while (at < comment.size() && (comment[at] == '/' || comment[at] == ' ')) {
    ++at;
  }
  if (comment.substr(at, 8) != "egolint:") return;
  std::size_t pos = at + 8;
  while (pos < comment.size() && comment[pos] == ' ') ++pos;
  std::size_t name_begin = pos;
  while (pos < comment.size() &&
         (IsIdentChar(comment[pos]) || comment[pos] == '-')) {
    ++pos;
  }
  Suppression sup;
  sup.name = std::string(comment.substr(name_begin, pos - name_begin));
  sup.line = line;
  if (pos < comment.size() && comment[pos] == '(') {
    std::size_t close = comment.rfind(')');
    if (close != std::string_view::npos && close > pos) {
      sup.reason = std::string(comment.substr(pos + 1, close - pos - 1));
    }
  }
  model->suppressions.push_back(sup);
}

}  // namespace

FileModel Lex(const SourceFile& file) {
  FileModel model;
  model.source = &file;
  const std::string_view src = file.content;
  std::size_t i = 0;
  int line = 1;

  auto push = [&](TokenKind kind, std::size_t begin, std::size_t end) {
    model.tokens.push_back(Token{kind, src.substr(begin, end - begin), line});
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor logical line (with backslash continuations). '#' only
    // starts a directive when nothing but whitespace precedes it on the
    // line, so check the raw prefix back to the newline.
    if (c == '#') {
      std::size_t bol = src.rfind('\n', i == 0 ? 0 : i - 1);
      bol = (bol == std::string_view::npos) ? 0 : bol + 1;
      bool directive = true;
      for (std::size_t j = bol; j < i; ++j) {
        if (!std::isspace(static_cast<unsigned char>(src[j]))) {
          directive = false;
          break;
        }
      }
      if (directive) {
        std::size_t begin = i;
        int begin_line = line;
        while (i < src.size()) {
          if (src[i] == '\n') {
            if (i > 0 && src[i - 1] == '\\') {
              ++line;
              ++i;
              continue;
            }
            break;
          }
          ++i;
        }
        std::string_view text = src.substr(begin, i - begin);
        // Of the directives, only a quoted include feeds a check.
        std::size_t p = 1;
        while (p < text.size() &&
               std::isspace(static_cast<unsigned char>(text[p]))) {
          ++p;
        }
        std::size_t kw_begin = p;
        while (p < text.size() && IsIdentChar(text[p])) ++p;
        std::string_view kw = text.substr(kw_begin, p - kw_begin);
        std::string_view rest = text.substr(p);
        if (kw == "include") {
          std::size_t q1 = rest.find('"');
          if (q1 != std::string_view::npos) {
            std::size_t q2 = rest.find('"', q1 + 1);
            if (q2 != std::string_view::npos) {
              model.includes.push_back(IncludeEdge{
                  std::string(rest.substr(q1 + 1, q2 - q1 - 1)), begin_line});
            }
          }
        }
        continue;
      }
    }
    // Line comment (and egolint suppressions).
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      std::size_t begin = i;
      while (i < src.size() && src[i] != '\n') ++i;
      ParseSuppression(src.substr(begin, i - begin), line, &model);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < src.size()) ? i + 2 : src.size();
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      std::size_t begin = i;
      std::size_t delim_begin = i + 2;
      std::size_t paren = src.find('(', delim_begin);
      if (paren != std::string_view::npos) {
        std::string closer = ")" +
                             std::string(src.substr(delim_begin,
                                                    paren - delim_begin)) +
                             "\"";
        std::size_t end = src.find(closer, paren + 1);
        end = (end == std::string_view::npos) ? src.size()
                                              : end + closer.size();
        int start_line = line;
        for (std::size_t j = begin; j < end; ++j) {
          if (src[j] == '\n') ++line;
        }
        model.tokens.push_back(Token{TokenKind::kString,
                                     src.substr(begin, end - begin),
                                     start_line});
        i = end;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      std::size_t begin = i;
      char quote = c;
      ++i;
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < src.size()) ++i;
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = (i < src.size()) ? i + 1 : src.size();
      push(quote == '"' ? TokenKind::kString : TokenKind::kChar, begin, i);
      continue;
    }
    if (IsIdentStart(c)) {
      std::size_t begin = i;
      while (i < src.size() && IsIdentChar(src[i])) ++i;
      push(TokenKind::kIdent, begin, i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t begin = i;
      while (i < src.size() &&
             (IsIdentChar(src[i]) || src[i] == '.' || src[i] == '\'')) {
        ++i;
      }
      push(TokenKind::kNumber, begin, i);
      continue;
    }
    // Punctuation; `::` and `->` as single tokens (the checks walk
    // member/namespace chains), everything else one char.
    if (c == ':' && i + 1 < src.size() && src[i + 1] == ':') {
      push(TokenKind::kPunct, i, i + 2);
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '>') {
      push(TokenKind::kPunct, i, i + 2);
      i += 2;
      continue;
    }
    push(TokenKind::kPunct, i, i + 1);
    ++i;
  }
  return model;
}

}  // namespace egolint
