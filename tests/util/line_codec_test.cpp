#include "util/line_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace cref::util {
namespace {

std::string sample() {
  LineWriter w;
  w.line("head").num(2);
  w.line("name").word("ring");
  w.line("values").list(std::vector<std::uint32_t>{7, 0, 42});
  w.line("signed").num(std::int64_t{-3});
  w.line("bits").bits({1, 0, 1});
  w.line("none").bits({});
  w.block("text", "a b\n\nc\n");
  w.line("note").word("free text, spaces and all");
  w.line("end");
  return w.take();
}

TEST(LineCodecTest, WriterEmitsLabelFieldLines) {
  EXPECT_EQ(sample(),
            "head 2\nname ring\nvalues 3 7 0 42\nsigned -3\nbits 3 101\nnone 0\n"
            "text 3\na b\n\nc\nnote free text, spaces and all\nend\n");
  LineWriter w;
  w.block("text", "unterminated");
  EXPECT_EQ(w.take(), "text 1\nunterminated\n");
}

TEST(LineCodecTest, ReaderReadsBackWhatTheWriterEmits) {
  const std::string text = sample();
  LineReader r(text);
  int head = 0;
  std::string name, block, note;
  std::vector<std::uint32_t> values;
  std::int64_t sgn = 0;
  std::vector<char> bits, none;
  r.line("head").num(head);
  r.line("name").word(name);
  r.line("values").list(values);
  r.line("signed").num(sgn);
  r.line("bits").bits(bits);
  r.line("none").bits(none);
  r.block("text", block);
  r.line("note").rest(note);
  EXPECT_TRUE(r.line("end").finish());
  EXPECT_EQ(head, 2);
  EXPECT_EQ(name, "ring");
  EXPECT_EQ(values, (std::vector<std::uint32_t>{7, 0, 42}));
  EXPECT_EQ(sgn, -3);
  EXPECT_EQ(bits, (std::vector<char>{1, 0, 1}));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(block, "a b\n\nc\n");
  EXPECT_EQ(note, "free text, spaces and all");
}

TEST(LineCodecTest, NumbersAreCanonicalAndRangeChecked) {
  std::uint32_t u32 = 0;
  std::uint8_t u8 = 0;
  int i = 0;
  bool b = false;
  EXPECT_TRUE(parse_number("4294967295", u32));
  EXPECT_FALSE(parse_number("4294967296", u32));  // would wrap through a cast
  EXPECT_FALSE(parse_number("256", u8));
  EXPECT_FALSE(parse_number("-1", u32));
  EXPECT_TRUE(parse_number("-7", i));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(parse_number("0", i));
  for (const char* bad : {"", "007", "-0", "+1", " 1", "1 ", "1x", "0x1"})
    EXPECT_FALSE(parse_number(bad, i)) << '"' << bad << '"';
  EXPECT_TRUE(parse_number("1", b));
  EXPECT_TRUE(b);
  EXPECT_TRUE(parse_number("0", b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(parse_number("2", b));
}

bool reads_one_number(const std::string& text) {
  LineReader r(text);
  int v = 0;
  return r.line("n").num(v).line("end").finish();
}

TEST(LineCodecTest, ReaderAcceptsOnlyTheExactLayout) {
  EXPECT_TRUE(reads_one_number("n 5\nend\n"));
  EXPECT_FALSE(reads_one_number("n 5 6\nend\n"));    // trailing field
  EXPECT_FALSE(reads_one_number("n  5\nend\n"));     // two spaces
  EXPECT_FALSE(reads_one_number("n 5 \nend\n"));     // trailing space
  EXPECT_FALSE(reads_one_number("n\t5\nend\n"));     // not a space
  EXPECT_FALSE(reads_one_number("nn 5\nend\n"));     // label prefix only
  EXPECT_FALSE(reads_one_number("n 5\nend"));        // unterminated line
  EXPECT_FALSE(reads_one_number("n 5\nend\n\n"));    // text after the end
  EXPECT_FALSE(reads_one_number("n 5\r\nend\n"));
}

TEST(LineCodecTest, FirstFailureFailsEveryLaterRead) {
  LineReader r("a x\nb 1\n");
  int v = 0;
  EXPECT_FALSE(r.line("a").num(v).ok());
  EXPECT_FALSE(r.line("b").num(v).ok());
  EXPECT_EQ(v, 0);
}

TEST(LineCodecTest, HostileCountsSizeNothing) {
  for (const char* text : {"v 4611686018427387904\n", "v 300000000 1 2\n"}) {
    LineReader r(text);
    std::vector<std::uint64_t> v;
    EXPECT_FALSE(r.line("v").list(v).ok()) << text;
    EXPECT_LE(v.capacity(), 2u) << text;
  }
  LineReader r("t 4611686018427387904\nonly line\n");
  std::string block;
  EXPECT_FALSE(r.block("t", block).ok());
  EXPECT_EQ(block, "only line\n");
}

}  // namespace
}  // namespace cref::util
