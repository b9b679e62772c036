// IPv4 prefixes, the keys of every routing table and of the MTT.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/serde.hpp"

namespace spider::bgp {

/// An IPv4 prefix: `length` leading bits of `bits` (host byte order); all
/// bits beyond `length` are kept zero, which makes comparison/total order
/// well-defined.  Length 0 (the default route) is valid.
class Prefix {
 public:
  Prefix() = default;
  /// Masks `bits` down to `length` bits. length must be <= 32.
  Prefix(std::uint32_t bits, std::uint8_t length);

  /// Parses "a.b.c.d/len"; throws std::invalid_argument on malformed input.
  static Prefix parse(std::string_view text);

  std::uint32_t bits() const { return bits_; }
  std::uint8_t length() const { return length_; }

  /// The i-th bit of the prefix (0 = most significant). i < length().
  bool bit(std::uint8_t i) const { return (bits_ >> (31 - i)) & 1u; }

  /// True when `other` is equal to or more specific than this prefix.
  bool contains(const Prefix& other) const;

  std::string str() const;

  void encode(util::ByteWriter& w) const;
  static Prefix decode(util::ByteReader& r);

  auto operator<=>(const Prefix&) const = default;

 private:
  std::uint32_t bits_ = 0;
  std::uint8_t length_ = 0;
};

/// Which prefixes a proof set or a check covers; empty = every prefix.
using PrefixFilter = std::function<bool(const Prefix&)>;

}  // namespace spider::bgp
