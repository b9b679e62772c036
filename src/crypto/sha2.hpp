// SHA-256 and SHA-512 (FIPS 180-4), implemented from scratch.
//
// SPIDeR's commitments use SHA-512 truncated to 20 bytes (paper §7.1:
// "We chose RSA-1024 signatures and the SHA-512 hash function, but we use
// only the first 20 bytes of each digest to save space").
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace spider::crypto {

using util::Bytes;
using util::ByteSpan;
using util::Digest20;

/// Streaming SHA-256.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }
  void reset();
  void update(ByteSpan data);
  Digest finish();

  /// One-shot convenience.
  static Digest hash(ByteSpan data);

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// Streaming SHA-512.
class Sha512 {
 public:
  static constexpr std::size_t kDigestSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha512() { reset(); }
  void reset();
  void update(ByteSpan data);
  Digest finish();

  static Digest hash(ByteSpan data);

 private:
  std::array<std::uint64_t, 8> state_{};
  std::array<std::uint8_t, 128> buffer_{};
  // Message lengths in this codebase never approach 2^64 bits, so a single
  // 64-bit byte counter suffices for the 128-bit length field.
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// SHA-512 truncated to the first 20 bytes: the digest/label type used by
/// every commitment, MTT label and logged message hash in this system.
Digest20 digest20(ByteSpan data);

/// digest20 over the concatenation of several fields, avoiding a copy.
Digest20 digest20_concat(std::initializer_list<ByteSpan> parts);

}  // namespace spider::crypto
