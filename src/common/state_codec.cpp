#include "common/state_codec.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "common/checksum.hpp"

namespace blam {

namespace {

/// Longest decimal rendering of a 64-bit integer (i64 min: sign + 19 digits).
constexpr std::size_t kMaxDecimal = 20;

/// Writes `value` as 16 lowercase hex digits at `out`; returns the end.
char* write_hex16(char* out, std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[value & 0xfu];
    value >>= 4;
  }
  return out + 16;
}

std::uint64_t parse_hex16(std::string_view text) {
  if (text.size() != 16) {
    throw std::runtime_error{"state codec: malformed hex16 '" + std::string{text} + "'"};
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error{"state codec: malformed hex16 '" + std::string{text} + "'"};
    }
  }
  return value;
}

/// Parses the whole of `text` as a decimal integer; throws naming `what`.
template <typename T>
T parse_decimal(std::string_view text, const char* what) {
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error{std::string{"state codec: malformed "} + what + " '" +
                             std::string{text} + "'"};
  }
  return value;
}

}  // namespace

StateWriter::StateWriter(std::ostream& out) : out_{out} {}

char* StateWriter::reserve(std::size_t n) {
  if (len_ + n > buf_.size()) buf_.resize(std::max(2 * buf_.size(), len_ + n));
  return buf_.data() + len_;
}

char* StateWriter::open_value(std::string_view tag, std::size_t payload_bytes) {
  if (!in_section_) throw std::logic_error{"StateWriter: value outside a section"};
  char* p = reserve(tag.size() + 1 + payload_bytes + 1);
  p = std::copy(tag.begin(), tag.end(), p);
  *p++ = ' ';
  return p;
}

void StateWriter::close_value(char* end) {
  *end++ = '\n';
  len_ = static_cast<std::size_t>(end - buf_.data());
}

void StateWriter::begin_section(std::string_view name) {
  if (in_section_) {
    throw std::logic_error{"StateWriter: nested section '" + std::string{name} + "'"};
  }
  constexpr std::string_view kTag = "section ";
  char* p = reserve(kTag.size() + name.size() + 1);
  p = std::copy(kTag.begin(), kTag.end(), p);
  p = std::copy(name.begin(), name.end(), p);
  *p++ = '\n';
  len_ = static_cast<std::size_t>(p - buf_.data());
  body_ = len_;  // the section line itself is not hashed
  in_section_ = true;
}

void StateWriter::end_section() {
  if (!in_section_) throw std::logic_error{"StateWriter: end_section outside a section"};
  const std::uint64_t hash = fnv1a64({buf_.data() + body_, len_ - body_});
  constexpr std::string_view kTag = "end ";
  char* p = reserve(kTag.size() + 16 + 1);
  p = std::copy(kTag.begin(), kTag.end(), p);
  p = write_hex16(p, hash);
  *p++ = '\n';
  out_.write(buf_.data(), p - buf_.data());
  len_ = 0;
  in_section_ = false;
}

void StateWriter::put_u64(std::uint64_t value) {
  char* p = open_value("u", kMaxDecimal);
  p = std::to_chars(p, p + kMaxDecimal, value).ptr;
  close_value(p);
}

void StateWriter::put_i64(std::int64_t value) {
  char* p = open_value("i", kMaxDecimal);
  p = std::to_chars(p, p + kMaxDecimal, value).ptr;
  close_value(p);
}

void StateWriter::put_double(double value) {
  char* p = open_value("d", 16);
  p = write_hex16(p, std::bit_cast<std::uint64_t>(value));
  close_value(p);
}

void StateWriter::put_string(std::string_view value) {
  if (value.find('\n') != std::string_view::npos) {
    throw std::logic_error{"StateWriter: string value contains a newline"};
  }
  char* p = open_value("s", value.size());
  p = std::copy(value.begin(), value.end(), p);
  close_value(p);
}

std::string_view StateReader::next_line() {
  // Every line the writer emits ends in a newline: a last line without one
  // is a cut-off stream, not a short token.
  const char* begin = bytes_.data() + pos_;
  const std::size_t left = bytes_.size() - pos_;
  const void* eol = left == 0 ? nullptr : std::memchr(begin, '\n', left);
  if (eol == nullptr) {
    throw std::runtime_error{"state codec: unexpected end of checkpoint in section '" + section_ +
                             "'"};
  }
  const auto length = static_cast<std::size_t>(static_cast<const char*>(eol) - begin);
  pos_ += length + 1;
  return {begin, length};
}

void StateReader::begin_section(std::string_view name) {
  constexpr std::string_view kTag = "section ";
  const std::string_view line = next_line();
  if (!line.starts_with(kTag) || line.substr(kTag.size()) != name) {
    throw std::runtime_error{"state codec: expected 'section " + std::string{name} + "', got '" +
                             std::string{line} + "'"};
  }
  section_.assign(name);
  body_ = pos_;  // the section line itself is not hashed
}

bool StateReader::at_section_end() const {
  // Value lines start with a one-letter tag (u, i, d, s); only the trailer
  // starts with 'e'.
  return pos_ < bytes_.size() && bytes_[pos_] == 'e';
}

void StateReader::end_section() {
  constexpr std::string_view kTag = "end ";
  const std::uint64_t hash = fnv1a64(bytes_.substr(body_, pos_ - body_));
  const std::string_view line = next_line();
  if (!line.starts_with(kTag)) {
    throw std::runtime_error{"state codec: expected section trailer in '" + section_ + "', got '" +
                             std::string{line} + "'"};
  }
  const std::uint64_t expected = parse_hex16(line.substr(kTag.size()));
  if (expected != hash) {
    throw std::runtime_error{"state codec: checksum mismatch in section '" + section_ +
                             "' (corrupted or truncated checkpoint)"};
  }
  section_.clear();
}

std::string_view StateReader::expect(std::string_view tag) {
  const std::string_view line = next_line();
  if (!line.starts_with(tag) || line.size() == tag.size() || line[tag.size()] != ' ') {
    throw std::runtime_error{"state codec: expected '" + std::string{tag} + " ...' in section '" +
                             section_ + "', got '" + std::string{line} + "'"};
  }
  return line.substr(tag.size() + 1);
}

std::uint64_t StateReader::get_u64() { return parse_decimal<std::uint64_t>(expect("u"), "u64"); }

std::int64_t StateReader::get_i64() { return parse_decimal<std::int64_t>(expect("i"), "i64"); }

double StateReader::get_double() { return std::bit_cast<double>(parse_hex16(expect("d"))); }

std::string StateReader::get_string() { return std::string{expect("s")}; }

}  // namespace blam
