#ifndef EGOCENSUS_UTIL_STRINGS_H_
#define EGOCENSUS_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace egocensus {

/// The one decimal parser for untrusted text (flags, headers, files): the
/// whole of `text` must be ASCII digits — no sign, no whitespace, no
/// trailing bytes. INVALID_ARGUMENT when it is not; OUT_OF_RANGE when the
/// number exceeds `max` (including anything past 2^64 - 1, which never
/// wraps).
[[nodiscard]] Result<std::uint64_t> ParseUint(std::string_view text,
                                              std::uint64_t max);

/// Strict finite decimal (the std::from_chars grammar) spanning all of
/// `text`; INVALID_ARGUMENT otherwise.
[[nodiscard]] Result<double> ParseDouble(std::string_view text);

/// Returns `s` with leading/trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view s);

/// Splits `s` on `delim`, optionally trimming each piece. Empty pieces are
/// kept (consistent with SQL-ish value lists).
std::vector<std::string> Split(std::string_view s, char delim,
                               bool trim = true);

/// ASCII upper-case copy.
std::string ToUpper(std::string_view s);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// control characters as \uXXXX). Used by the daemon's STATUS endpoint and
/// other hand-rolled JSON writers.
std::string JsonEscape(std::string_view s);

}  // namespace egocensus

#endif  // EGOCENSUS_UTIL_STRINGS_H_
