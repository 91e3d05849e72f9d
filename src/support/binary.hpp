// A minimal binary encoder/decoder pair for the on-disk cache format and
// the DFA serializer.  Fixed-width little-endian integers and
// length-prefixed strings; every read is bounds-checked and malformed input
// fails with BinaryFormatError (never UB), which is what lets the cache
// treat arbitrary file corruption as a structured miss.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace shelley::support {

/// Thrown by BinaryReader on truncated or malformed input.
class BinaryFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends values to a byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  /// Length-prefixed (u64) byte string.
  void str(std::string_view bytes);
  /// Raw bytes, no length prefix (caller knows the size).
  void raw(std::string_view bytes);

  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Consumes values from a byte buffer; throws BinaryFormatError on any
/// overrun or impossible size.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::string str();
  /// str() as a view into the buffer, copying nothing.
  [[nodiscard]] std::string_view str_view();
  [[nodiscard]] std::string_view raw(std::size_t size);

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

  /// Throws unless the whole buffer was consumed (trailing garbage is
  /// corruption too).
  void expect_end() const;

 private:
  void require(std::size_t size) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace shelley::support
