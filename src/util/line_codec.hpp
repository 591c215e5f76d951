#pragma once

// One codec for the line-oriented certificate formats ("cref-cache 2",
// "refine-cert 1"). A line is a label and fields, each field after one
// space, ended by '\n'. The reader accepts exactly what the writer
// emits: canonical decimals that fit the target type, no field left
// unread on a line, nothing after the last line. Its first failed read
// fails every later one, so a loop over a count-prefixed run of lines
// must stop once !ok(); lists are never pre-sized from their count.

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace cref::util {

/// A whole token as a canonical decimal (no leading zeros, a sign only
/// for signed types), range-checked into T; a bool is 0 or 1.
template <class T>
bool parse_number(std::string_view tok, T& out) {
  if (tok.size() > 1 && (tok[0] == '0' || (tok[0] == '-' && tok[1] == '0'))) return false;
  const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc() && end == tok.data() + tok.size();
}
inline bool parse_number(std::string_view tok, bool& out) {
  out = tok == "1";
  return out || tok == "0";
}

class LineWriter {
 public:
  /// Ends the open line and starts one with `label`.
  LineWriter& line(std::string_view label) {
    end_line();
    out_ += label;
    return *this;
  }
  /// A word, or the raw rest of the line (no '\n').
  LineWriter& word(std::string_view w) {
    out_.append(1, ' ').append(w);
    return *this;
  }
  template <class T>
  LineWriter& num(T v) {
    char buf[24];
    return word(std::string_view(buf, std::to_chars(buf, buf + sizeof buf, v).ptr));
  }
  /// The count, then the elements.
  template <class V>
  LineWriter& list(const V& v) {
    num(v.size());
    for (const auto x : v) num(x);
    return *this;
  }
  /// The count, then one 0/1 string unless empty.
  LineWriter& bits(const std::vector<char>& v) {
    num(v.size());
    if (!v.empty()) out_ += ' ';
    for (char c : v) out_ += c ? '1' : '0';
    return *this;
  }
  /// "label N", then `text` as N lines.
  LineWriter& block(std::string_view label, std::string_view text);
  std::string take() {
    end_line();
    return std::move(out_);
  }

 private:
  void end_line() {
    if (!out_.empty() && out_.back() != '\n') out_ += '\n';
  }
  std::string out_;
};

class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Opens the next line, whose first field must be `label`; the open
  /// line must have been read to its end.
  LineReader& line(std::string_view label);
  LineReader& word(std::string& out) {
    std::string_view tok;
    if (token(tok)) out = tok;
    return *this;
  }
  /// The raw rest of the line after one space (possibly empty).
  LineReader& rest(std::string& out) {
    ok_ = ok_ && line_.starts_with(' ');
    if (ok_) out.assign(line_.substr(1));
    line_ = {};
    return *this;
  }
  template <class T>
  LineReader& num(T& out) {
    std::string_view tok;
    ok_ = token(tok) && parse_number(tok, out);
    return *this;
  }
  template <class T>
  LineReader& list(std::vector<T>& out) {
    std::size_t n = 0;
    num(n);
    out.clear();
    for (T x{}; n > 0 && num(x).ok_; --n) out.push_back(x);
    return *this;
  }
  LineReader& bits(std::vector<char>& out);
  /// A "label N" line, then N raw lines appended to `out`.
  LineReader& block(std::string_view label, std::string& out);

  bool ok() const { return ok_; }
  /// Every read succeeded and consumed the whole text.
  bool finish() const { return ok_ && line_.empty() && text_.empty(); }

 private:
  bool next_line(std::string_view& out);
  bool token(std::string_view& out);

  std::string_view text_;  // after the open line
  std::string_view line_;  // unread rest of the open line
  bool ok_ = true;
};

}  // namespace cref::util
