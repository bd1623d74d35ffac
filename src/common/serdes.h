// Minimal binary serialization: little-endian, length-prefixed, magic+version
// header. Used to persist keys and ciphertexts (see src/serdes for the
// FHE-type overloads).
//
// The reader treats every input as adversarial: declared lengths are capped
// against the bytes actually remaining BEFORE any allocation, so a 16-byte
// file claiming 2^60 elements throws std::runtime_error instead of OOM-ing,
// and every malformed stream fails with a typed exception, never UB.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/modarith.h"

namespace alchemist {

// The project's one FNV-1a (64-bit, order-sensitive): integrity footers of
// the FHE object framing (src/serdes), checkpoint and net frames, fault
// checksums and trace span-id minting all digest through it.
inline u64 fnv1a(std::span<const std::uint8_t> bytes) {
  u64 hash = 14695981039346656037ull;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}
inline u64 fnv1a(std::string_view s) {
  return fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v) { buffer_.push_back(v); }
  void write_u64(u64 v);
  void write_double(double v);
  void write_u64_vector(std::span<const u64> v);
  // Length-prefixed raw byte blob (nested frames, checkpoint cursors).
  void write_bytes(std::span<const std::uint8_t> bytes);
  // Write a tag identifying the following object (checked on read).
  void write_tag(const std::string& tag);

  // Bytes written so far; pairs with checksum_since() for framed objects.
  std::size_t position() const { return buffer_.size(); }
  u64 checksum_since(std::size_t start) const;

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  void save(const std::string& path) const;

 private:
  std::vector<std::uint8_t> buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> buffer)
      : buffer_(std::move(buffer)) {}
  static BinaryReader load(const std::string& path);

  std::uint8_t read_u8();
  u64 read_u64();
  double read_double();
  // The declared element count is validated against remaining() before the
  // vector is allocated.
  std::vector<u64> read_u64_vector();
  // Length-prefixed blob written by write_bytes; the declared length is
  // validated against remaining() before allocation.
  std::vector<std::uint8_t> read_bytes();
  // Length-prefixed string written by write_tag, with the same length cap and
  // an additional sanity bound (`max_len`) for keys that should be short.
  std::string read_string(std::size_t max_len = 4096);
  // Throws std::runtime_error if the next tag does not match.
  void expect_tag(const std::string& tag);

  bool at_end() const { return pos_ == buffer_.size(); }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return buffer_.size() - pos_; }
  // Digest of the bytes consumed since `start`; compared against the stored
  // integrity footer by the FHE object readers.
  u64 checksum_since(std::size_t start) const;

 private:
  void need(std::size_t bytes) const;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
};

}  // namespace alchemist
