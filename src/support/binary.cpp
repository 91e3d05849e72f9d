#include "support/binary.hpp"

namespace shelley::support {

void BinaryWriter::u8(std::uint8_t value) {
  out_.push_back(static_cast<char>(value));
}

void BinaryWriter::u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>(value >> (8 * i)));
  }
}

void BinaryWriter::u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>(value >> (8 * i)));
  }
}

void BinaryWriter::str(std::string_view bytes) {
  u64(bytes.size());
  out_.append(bytes);
}

void BinaryWriter::raw(std::string_view bytes) { out_.append(bytes); }

void BinaryReader::require(std::size_t size) const {
  if (size > bytes_.size() - pos_) {
    throw BinaryFormatError("binary input truncated");
  }
}

std::uint8_t BinaryReader::u8() {
  require(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t BinaryReader::u32() {
  require(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 4;
  return value;
}

std::uint64_t BinaryReader::u64() {
  require(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  return value;
}

std::string BinaryReader::str() { return std::string(str_view()); }

std::string_view BinaryReader::str_view() {
  const std::uint64_t size = u64();
  require(size);
  const std::string_view out = bytes_.substr(pos_, size);
  pos_ += size;
  return out;
}

std::string_view BinaryReader::raw(std::size_t size) {
  require(size);
  const std::string_view out = bytes_.substr(pos_, size);
  pos_ += size;
  return out;
}

void BinaryReader::expect_end() const {
  if (!at_end()) {
    throw BinaryFormatError("binary input has trailing bytes");
  }
}

}  // namespace shelley::support
