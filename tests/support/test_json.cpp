#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace spar::support {
namespace {

TEST(JsonEscape, QuoteAndBackslash) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EveryControlByteIsEscaped) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    std::string want;
    switch (c) {
      case '\n': want = "\\n"; break;
      case '\t': want = "\\t"; break;
      case '\r': want = "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        want = buf;
      }
    }
    EXPECT_EQ(json_escape(in), want) << "byte " << c;
  }
}

TEST(JsonEscape, PrintableAndHighBytesPassThrough) {
  EXPECT_EQ(json_escape("grid 32x32/~"), "grid 32x32/~");
  EXPECT_EQ(json_escape(std::string(1, '\x7f')), std::string(1, '\x7f'));
  for (int c = 0x80; c <= 0xff; ++c) {
    const std::string in(1, static_cast<char>(c));
    EXPECT_EQ(json_escape(in), in) << "byte " << c;
  }
  const std::string utf8 = "\xc3\xa9t\xc3\xa9";  // "ete" with acute accents
  EXPECT_EQ(json_escape(utf8), utf8);
}

}  // namespace
}  // namespace spar::support
