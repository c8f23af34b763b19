// State codec tokens: exact round-trips at the extremes of every token type,
// one golden byte string that pins the layout, and the reader's named errors
// for damaged input.
#include "common/state_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace blam {
namespace {

std::string encode(const std::function<void(StateWriter&)>& body) {
  std::ostringstream out;
  StateWriter w{out};
  body(w);
  return out.str();
}

TEST(StateCodec, RoundTripsEveryTokenAtItsExtremes) {
  const double nan_payload = std::bit_cast<double>(std::uint64_t{0x7ff8'dead'beef'0001});
  const double denormal = std::numeric_limits<double>::denorm_min();
  const std::string text = encode([&](StateWriter& w) {
    w.begin_section("extremes");
    w.put_u64(std::numeric_limits<std::uint64_t>::max());
    w.put_u64(0);
    w.put_i64(std::numeric_limits<std::int64_t>::min());
    w.put_i64(std::numeric_limits<std::int64_t>::max());
    w.put_double(-0.0);
    w.put_double(nan_payload);
    w.put_double(denormal);
    w.put_double(std::numeric_limits<double>::infinity());
    w.put_string("");
    w.put_string("spaces  and\ttabs ");
    w.end_section();
    w.begin_section("second");
    w.put_u64(7);
    w.end_section();
  });

  StateReader r{text};
  r.begin_section("extremes");
  EXPECT_EQ(r.get_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_EQ(r.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.get_i64(), std::numeric_limits<std::int64_t>::max());
  const double neg_zero = r.get_double();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_double()),
            std::bit_cast<std::uint64_t>(nan_payload));
  EXPECT_EQ(r.get_double(), denormal);
  EXPECT_EQ(r.get_double(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "spaces  and\ttabs ");
  EXPECT_TRUE(r.at_section_end());
  r.end_section();
  r.begin_section("second");
  EXPECT_EQ(r.get_u64(), 7u);
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

TEST(StateCodec, GoldenLayout) {
  const std::string text = encode([](StateWriter& w) {
    w.begin_section("g");
    w.put_u64(42);
    w.put_i64(-7);
    w.put_double(1.0);
    w.put_string("hi there");
    w.end_section();
    w.begin_section("empty");
    w.end_section();
  });
  // The trailer is FNV-1a 64 over every byte between the section line and
  // the trailer; an empty section hashes to the FNV offset basis.
  EXPECT_EQ(text,
            "section g\n"
            "u 42\n"
            "i -7\n"
            "d 3ff0000000000000\n"
            "s hi there\n"
            "end e92437063cf25670\n"
            "section empty\n"
            "end cbf29ce484222325\n");
}

/// A well-formed one-section stream the error cases below damage.
std::string sample() {
  return encode([](StateWriter& w) {
    w.begin_section("sample");
    w.put_u64(5);
    w.put_i64(-5);
    w.put_double(0.5);
    w.end_section();
  });
}

/// Reads sample()'s layout from `text`; returns the runtime_error message.
std::string read_error(const std::string& text) {
  StateReader r{text};
  try {
    r.begin_section("sample");
    (void)r.get_u64();
    (void)r.get_i64();
    (void)r.get_double();
    r.end_section();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string replaced(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(StateCodec, ReaderNamesEachDamage) {
  const std::string good = sample();
  ASSERT_EQ(read_error(good), "");
  struct Case {
    const char* name;
    std::string text;
    const char* message;
  };
  const Case cases[] = {
      {"truncated mid-section", good.substr(0, good.find("d ")),
       "state codec: unexpected end of checkpoint in section 'sample'"},
      {"flipped byte", replaced(good, "i -5", "i -6"),
       "state codec: checksum mismatch in section 'sample' (corrupted or truncated checkpoint)"},
      {"wrong section", replaced(good, "section sample", "section other"),
       "state codec: expected 'section sample', got 'section other'"},
      {"wrong tag", replaced(good, "i -5", "u 5"),
       "state codec: expected 'i ...' in section 'sample', got 'u 5'"},
      {"tag without value separator", replaced(good, "u 5\n", "u\n"),
       "state codec: expected 'u ...' in section 'sample', got 'u'"},
      {"malformed hex16", replaced(good, "d 3fe0000000000000", "d 3fe000000000000g"),
       "state codec: malformed hex16 '3fe000000000000g'"},
      {"short hex16", replaced(good, "d 3fe0000000000000", "d 3fe0"),
       "state codec: malformed hex16 '3fe0'"},
      {"u64 trailing text", replaced(good, "u 5\n", "u 5x\n"), "state codec: malformed u64 '5x'"},
      {"u64 negative", replaced(good, "u 5\n", "u -5\n"), "state codec: malformed u64 '-5'"},
      {"i64 trailing text", replaced(good, "i -5", "i -5 "), "state codec: malformed i64 '-5 '"},
      {"i64 overflow", replaced(good, "i -5", "i 9223372036854775808"),
       "state codec: malformed i64 '9223372036854775808'"},
      {"extra value", replaced(good, "\nend ", "\nu 1\nend "),
       "state codec: expected section trailer in 'sample', got 'u 1'"},
      {"missing trailer", replaced(good, "end ", "fin "),
       "state codec: expected section trailer in 'sample', got 'fin "},
      {"malformed trailer", replaced(good, "\nend ", "\nend 0"), "state codec: malformed hex16 '0"},
  };
  for (const Case& c : cases) {
    const std::string message = read_error(c.text);
    EXPECT_EQ(message.rfind(c.message, 0), 0u)
        << c.name << ": got '" << message << "', want prefix '" << c.message << "'";
  }
}

TEST(StateCodec, WriterRejectsMisuse) {
  std::ostringstream out;
  StateWriter w{out};
  EXPECT_THROW(w.put_u64(1), std::logic_error);
  EXPECT_THROW(w.put_string("x"), std::logic_error);
  EXPECT_THROW(w.end_section(), std::logic_error);
  w.begin_section("outer");
  EXPECT_THROW(w.begin_section("inner"), std::logic_error);
  EXPECT_THROW(w.put_string("two\nlines"), std::logic_error);
  w.end_section();
  // Nothing reaches the stream but the one completed section.
  EXPECT_EQ(out.str(), "section outer\nend cbf29ce484222325\n");
}

}  // namespace
}  // namespace blam
