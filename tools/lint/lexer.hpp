// graffix-lint lexer — the shared first layer of the analyzer.
//
// Splits a C++ translation unit into per-line {code, comment} text with
// string/char literals blanked (so a rule pattern quoted in a literal or
// a comment never fires), then optionally into a flat token stream for
// the scope-aware parse layer (parse.hpp).
//
// Faithful to translation phase 2: backslash-newline sequences are
// spliced BEFORE any other scanning, so a continued `#pragma omp \`
// directive is one logical line (the R1 matching surface). The
// spliced content attributes to the first physical line; continued
// physical lines yield empty entries so line numbering stays 1:1 with
// the file. Splicing is suspended inside raw string literals, where the
// standard reverts it.
//
// Other handled corners (each pinned by tests/lexer_test.cpp):
//   - raw strings with custom delimiters R"delim(...)delim", blanked to
//     a quote pair so they still read as a string token;
//   - block comments do not nest; `//` directly after a closing quote
//     is a comment, `//` inside a literal is not;
//   - digit separators: the `'` in 1'000'000 does not open a char
//     literal (but the `'` in u8'a' does).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace graffix::lint {

struct ScannedLine {
  std::string code;     // literals blanked to their delimiters
  std::string comment;  // comment text, delimiters stripped
};

[[nodiscard]] std::vector<ScannedLine> scan_lines(std::string_view content);

struct Token {
  enum class Kind { Ident, Number, String, CharLit, Punct };
  Kind kind = Kind::Punct;
  std::string text;
  int line = 0;  // 1-based physical line (splices report the first line)
};

/// Tokenizes the scanned code text. Preprocessor lines (first non-space
/// code char is '#') are skipped entirely: the line-level rules own
/// those, and pp-conditionals would unbalance brace matching.
[[nodiscard]] std::vector<Token> tokenize(
    const std::vector<ScannedLine>& lines);

}  // namespace graffix::lint
