// Line-oriented state codec: the one format for persisted simulator state
// (engine checkpoints, the gateway ledger, campaign journal payloads).
//
// A stream is a sequence of named sections; inside a section every value
// is one typed token line:
//
//   section <name>
//   u 42                     (unsigned integer, decimal)
//   i -7                     (signed integer, decimal)
//   d 3ff0000000000000       (double, exact IEEE-754 bit pattern, hex16)
//   s some text to eol       (string; no embedded newlines)
//   end a1b2c3d4e5f60718     (FNV-1a 64 of every byte after the `section` line)
//
// Doubles travel as bit patterns, never as formatted decimals: restore is
// bit-exact by construction, which is what lets a resumed run reproduce the
// uninterrupted run's figure CSVs byte for byte. The per-section FNV trailer
// turns a truncated or corrupted file (the expected failure mode after a
// kill -9 mid-write, despite the tmp+rename discipline) into a loud
// std::runtime_error naming the section instead of a silently wrong resume.
// Every malformed token is a named std::runtime_error too; callers that read
// a count off the stream grow their containers as the counted tokens arrive
// instead of pre-sizing from the count, so a forged count runs into the end
// of the section rather than into the allocator.
//
// Both ends are allocation-free per token: a checkpoint carries hundreds of
// tokens per node, so a per-value std::string would dominate the cost. The
// writer formats each token in place into one reusable section buffer, folds
// the FNV hash over it, and hands the bytes to the stream once per section,
// at end_section. The reader parses views straight out of one contiguous
// byte range (split with memchr), so disjoint ranges of one buffer can be
// read on separate threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace blam {

class StateWriter {
 public:
  explicit StateWriter(std::ostream& out);

  void begin_section(std::string_view name);
  /// Writes the FNV trailer and hands the section to the stream.
  void end_section();

  void put_u64(std::uint64_t value);
  void put_i64(std::int64_t value);
  void put_double(double value);
  /// `value` must not contain newlines.
  void put_string(std::string_view value);

 private:
  /// Room for `n` more bytes at the end of the section buffer.
  [[nodiscard]] char* reserve(std::size_t n);
  /// Starts a value line with `tag` and a space, leaving room for
  /// `payload_bytes` more and the newline. Throws outside a section.
  [[nodiscard]] char* open_value(std::string_view tag, std::size_t payload_bytes);
  /// Ends the value line whose payload stops at `end`.
  void close_value(char* end);

  std::ostream& out_;
  std::string buf_;  // buf_.size() is the capacity; len_ bytes are in use
  std::size_t len_{0};
  std::size_t body_{0};  // the hashed part of the section starts here
  bool in_section_{false};
};

class StateReader {
 public:
  /// Reads `bytes`, which must outlive the reader.
  explicit StateReader(std::string_view bytes) : bytes_{bytes} {}
  /// A temporary would dangle: keep the bytes alive and pass a view.
  explicit StateReader(std::string&&) = delete;

  /// Consumes `section <name>`; throws std::runtime_error on mismatch.
  void begin_section(std::string_view name);
  /// Consumes `end <fnv16hex>` and verifies the section hash.
  void end_section();
  /// True when the next line is the section trailer (no values left).
  [[nodiscard]] bool at_section_end() const;

  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] double get_double();
  [[nodiscard]] std::string get_string();

  /// True once every byte has been read.
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }
  /// The bytes not read yet.
  [[nodiscard]] std::string_view remaining() const { return bytes_.substr(pos_); }

 private:
  /// The next line, without its newline.
  [[nodiscard]] std::string_view next_line();
  /// The next line's payload: what follows `tag` and a space.
  [[nodiscard]] std::string_view expect(std::string_view tag);

  std::string_view bytes_;
  std::size_t pos_{0};
  std::size_t body_{0};  // the current section's hashed part starts here
  std::string section_;
};

}  // namespace blam
