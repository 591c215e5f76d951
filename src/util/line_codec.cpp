#include "util/line_codec.hpp"

#include <algorithm>

namespace cref::util {

LineWriter& LineWriter::block(std::string_view label, std::string_view text) {
  const bool unterminated = !text.empty() && text.back() != '\n';
  line(label).num(std::count(text.begin(), text.end(), '\n') + unterminated);
  out_.append(1, '\n').append(text);
  if (unterminated) out_ += '\n';
  return *this;
}

bool LineReader::next_line(std::string_view& out) {
  const std::size_t nl = text_.find('\n');
  if (!ok_ || nl == std::string_view::npos) return ok_ = false;
  out = text_.substr(0, nl);
  text_.remove_prefix(nl + 1);
  return true;
}

bool LineReader::token(std::string_view& out) {
  if (!ok_ || !line_.starts_with(' ')) return ok_ = false;
  line_.remove_prefix(1);
  out = line_.substr(0, line_.find(' '));
  line_.remove_prefix(out.size());
  return ok_ = !out.empty();
}

LineReader& LineReader::line(std::string_view label) {
  // The previous line must have been read to its end.
  ok_ = line_.empty() && next_line(line_) && line_.starts_with(label);
  if (ok_) line_.remove_prefix(label.size());
  ok_ = ok_ && (line_.empty() || line_.starts_with(' '));
  return *this;
}

LineReader& LineReader::bits(std::vector<char>& out) {
  std::size_t n = 0;
  std::string_view tok;
  out.clear();
  if (!num(n).ok_ || n == 0 || !token(tok)) return *this;
  ok_ = tok.size() == n && tok.find_first_not_of("01") == std::string_view::npos;
  for (char c : tok) out.push_back(c == '1');
  return *this;
}

LineReader& LineReader::block(std::string_view label, std::string& out) {
  std::size_t n = 0;
  ok_ = line(label).num(n).ok_ && line_.empty();
  for (std::string_view l; n > 0 && next_line(l); --n) out.append(l).push_back('\n');
  return *this;
}

}  // namespace cref::util
