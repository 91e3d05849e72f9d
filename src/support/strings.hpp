// Small string utilities shared across the project.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace shelley {

/// A transparent string hash: with std::equal_to<>, a map keyed by
/// std::string is searched by std::string_view without building a key.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// A std::string-keyed map whose lookups take views and allocate nothing.
template <typename Value>
using StringMap =
    std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

/// Joins `parts` with `separator`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view separator);

/// Splits `text` on `separator` (single char); keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char separator);

/// Strips leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Escapes `"` and `\` for embedding in DOT/SMV string literals.
[[nodiscard]] std::string escape_quotes(std::string_view text);

/// Indents every line of `text` by `spaces` spaces.
[[nodiscard]] std::string indent(std::string_view text, int spaces);

}  // namespace shelley
