#include "common/serdes.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace alchemist {

u64 BinaryWriter::checksum_since(std::size_t start) const {
  if (start > buffer_.size()) {
    throw std::logic_error("BinaryWriter: checksum start past end of buffer");
  }
  return fnv1a(std::span<const std::uint8_t>(buffer_).subspan(start));
}

u64 BinaryReader::checksum_since(std::size_t start) const {
  if (start > pos_) {
    throw std::logic_error("BinaryReader: checksum start past read position");
  }
  return fnv1a(std::span<const std::uint8_t>(buffer_).subspan(start, pos_ - start));
}

void BinaryWriter::write_u64(u64 v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::write_double(double v) {
  u64 bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void BinaryWriter::write_u64_vector(std::span<const u64> v) {
  write_u64(v.size());
  for (u64 x : v) write_u64(x);
}

void BinaryWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_u64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::write_tag(const std::string& tag) {
  write_u64(tag.size());
  for (char c : tag) buffer_.push_back(static_cast<std::uint8_t>(c));
}

void BinaryWriter::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("BinaryWriter: cannot open " + path);
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  if (!out) throw std::runtime_error("BinaryWriter: write failed for " + path);
}

BinaryReader BinaryReader::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("BinaryReader: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(buffer.data()), size);
  if (!in) throw std::runtime_error("BinaryReader: read failed for " + path);
  return BinaryReader(std::move(buffer));
}

void BinaryReader::need(std::size_t bytes) const {
  if (pos_ + bytes > buffer_.size()) {
    throw std::runtime_error("BinaryReader: truncated input");
  }
}

std::uint8_t BinaryReader::read_u8() {
  need(1);
  return buffer_[pos_++];
}

u64 BinaryReader::read_u64() {
  need(8);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= u64{buffer_[pos_++]} << (8 * i);
  return v;
}

double BinaryReader::read_double() {
  const u64 bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<u64> BinaryReader::read_u64_vector() {
  const u64 count = read_u64();
  // Cap the declared count against the bytes actually left before touching
  // the allocator: a tiny file claiming 2^60 elements must throw, not OOM.
  if (count > remaining() / sizeof(u64)) {
    throw std::runtime_error("BinaryReader: vector length exceeds remaining input");
  }
  std::vector<u64> v(static_cast<std::size_t>(count));
  for (u64& x : v) x = read_u64();
  return v;
}

std::vector<std::uint8_t> BinaryReader::read_bytes() {
  const u64 count = read_u64();
  if (count > remaining()) {
    throw std::runtime_error("BinaryReader: blob length exceeds remaining input");
  }
  std::vector<std::uint8_t> v(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + count));
  pos_ += static_cast<std::size_t>(count);
  return v;
}

std::string BinaryReader::read_string(std::size_t max_len) {
  const u64 len = read_u64();
  if (len > remaining() || len > max_len) {
    throw std::runtime_error("BinaryReader: string length exceeds remaining input");
  }
  std::string s(reinterpret_cast<const char*>(buffer_.data() + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

void BinaryReader::expect_tag(const std::string& tag) {
  const u64 len = read_u64();
  if (len != tag.size()) throw std::runtime_error("BinaryReader: tag mismatch (want " + tag + ")");
  need(len);
  for (char c : tag) {
    if (buffer_[pos_++] != static_cast<std::uint8_t>(c)) {
      throw std::runtime_error("BinaryReader: tag mismatch (want " + tag + ")");
    }
  }
}

}  // namespace alchemist
