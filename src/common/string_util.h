// Small string helpers shared across modules.

#ifndef OPD_COMMON_STRING_UTIL_H_
#define OPD_COMMON_STRING_UTIL_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace opd {

/// Splits `s` on the delimiter character. Empty tokens are kept.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Joins the strings with `sep` between elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Lower-cases ASCII characters in place and returns the result.
std::string ToLowerAscii(std::string_view s);

namespace internal {

/// Each byte's lower-case form when it is an ASCII letter or digit (what
/// std::isalnum / std::tolower give in the "C" locale), else 0.
inline constexpr std::array<char, 256> kWordBytes = [] {
  std::array<char, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) {
    t[c] = static_cast<char>(c);
    t[c - 'a' + 'A'] = static_cast<char>(c);
  }
  return t;
}();

/// Longest word ForEachWord lower-cases on the stack; longer words use the
/// heap.
inline constexpr size_t kWordStackBytes = 64;

}  // namespace internal

/// Calls `fn(std::string_view word)` for each maximal run of ASCII letters
/// and digits in `text`, in order, lower-cased. The view is valid only
/// during the call.
template <typename Fn>
void ForEachWord(std::string_view text, Fn&& fn) {
  const auto word_byte = [](char c) {
    return internal::kWordBytes[static_cast<unsigned char>(c)];
  };
  char stack[internal::kWordStackBytes];
  std::string heap;
  const size_t n = text.size();
  size_t i = 0;
  while (true) {
    while (i < n && word_byte(text[i]) == 0) ++i;
    if (i == n) return;
    // Lower-case into the stack buffer while scanning; a word that
    // overflows it is copied again into the heap buffer.
    const size_t begin = i;
    size_t len = 0;
    for (char c; i < n && (c = word_byte(text[i])) != 0; ++i, ++len) {
      if (len < sizeof(stack)) stack[len] = c;
    }
    if (len <= sizeof(stack)) {
      fn(std::string_view(stack, len));
    } else {
      heap.resize(len);
      for (size_t k = 0; k < len; ++k) heap[k] = word_byte(text[begin + k]);
      fn(std::string_view(heap));
    }
  }
}

/// Tokenizes text into lower-case alphanumeric words (punctuation-separated):
/// the words ForEachWord visits, copied.
std::vector<std::string> TokenizeWords(std::string_view text);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace opd

#endif  // OPD_COMMON_STRING_UTIL_H_
