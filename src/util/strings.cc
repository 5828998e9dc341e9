#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace egocensus {

[[nodiscard]] Result<std::uint64_t> ParseUint(std::string_view text,
                                              std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (stop != end || error == std::errc::invalid_argument) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not an unsigned integer");
  }
  if (error == std::errc::result_out_of_range || value > max) {
    return Status::OutOfRange("'" + std::string(text) + "' exceeds " +
                              std::to_string(max));
  }
  return value;
}

[[nodiscard]] Result<double> ParseDouble(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (stop != end || error != std::errc() || !std::isfinite(value)) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not a finite number");
  }
  return value;
}

std::string_view StripWhitespace(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  std::size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char delim, bool trim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      std::string_view piece = s.substr(start, i - start);
      if (trim) piece = StripWhitespace(piece);
      out.emplace_back(piece);
      start = i + 1;
    }
  }
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string JsonEscape(std::string_view s) {
  static const char kHex[] = "0123456789abcdef";
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace egocensus
