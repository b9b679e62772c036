#include "crypto/sha2_multi.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "crypto/sha2_kernel.hpp"
#include "obs/metrics.hpp"

namespace spider::crypto {

namespace {

using detail::kMaxLanes;

constexpr std::size_t kBlock = 128;

/// Smallest group worth a lane compression.  One 8-lane compression costs
/// about 2.1 one-message kernel blocks on an AVX-512 Xeon: a pair of
/// 20-60 byte messages ties with two one-at-a-time hashes and a pair of
/// 1000-byte ones runs about 10 % slower in lanes, while a trio is 1.3-1.5x
/// faster in lanes at every length.
constexpr std::size_t kMinLaneGroup = 3;

/// Blocks the padded message occupies: data, then 0x80 + zeros + 16-byte
/// length, rounded up.
std::size_t padded_blocks(std::size_t len) { return (len + 17 + kBlock - 1) / kBlock; }

struct Backend {
  std::size_t lanes;
  void (*compress)(std::uint64_t (*)[kMaxLanes], const std::uint8_t* const*);
};

const Backend& backend() {
  static const Backend be = [] {
    if (detail::sha512_x8_supported()) return Backend{8, &detail::sha512_x8_compress};
    if (detail::sha512_x4_supported()) return Backend{4, &detail::sha512_x4_compress};
    return Backend{1, nullptr};
  }();
  return be;
}

/// The big-endian byte image of v as a native word: one bswap on
/// little-endian hosts, so a memcpy of the result stores big-endian bytes.
std::uint64_t to_be64(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  return v;
}

/// Per-lane padding tail: the final one or two blocks holding the message
/// remainder, the 0x80 marker and the big-endian bit length.  Left
/// uninitialized; build_tail writes every byte the compression reads.
struct Tail {
  std::uint8_t pad[2 * kBlock];
  std::size_t data_blocks;
};

void build_tail(ByteSpan msg, Tail& t) {
  const std::size_t rem = msg.size() % kBlock;
  t.data_blocks = msg.size() / kBlock;
  const std::size_t tail_bytes = (padded_blocks(msg.size()) - t.data_blocks) * kBlock;
  if (rem != 0) std::memcpy(t.pad, msg.data() + t.data_blocks * kBlock, rem);
  t.pad[rem] = 0x80;
  // Zeros up to the 128-bit big-endian length, whose high 8 bytes stay
  // zero for any message under 2^61 bytes (same assumption as the scalar
  // class).
  std::memset(t.pad + rem + 1, 0, tail_bytes - 8 - (rem + 1));
  const std::uint64_t bits = to_be64(static_cast<std::uint64_t>(msg.size()) * 8);
  std::memcpy(t.pad + tail_bytes - 8, &bits, sizeof(bits));
}

/// Hashes a group of g (kMinLaneGroup <= g <= kMaxLanes) messages that
/// all pad to the same block count into the first Out-size bytes of each
/// digest; lanes past g re-hash the last message and are discarded.
template <typename Out>
void run_group(const Backend& be, const ByteSpan* msgs, std::size_t g, Out* outs) {
  std::uint64_t state[8][kMaxLanes];
  for (std::size_t w = 0; w < 8; ++w) {
    for (std::size_t l = 0; l < kMaxLanes; ++l) state[w][l] = detail::kSha512Iv[w];
  }

  Tail tails[kMaxLanes];
  for (std::size_t l = 0; l < g; ++l) build_tail(msgs[l], tails[l]);

  const std::size_t nb = padded_blocks(msgs[0].size());
  const std::uint8_t* blocks[kMaxLanes] = {};
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t l = 0; l < be.lanes; ++l) {
      const std::size_t src = l < g ? l : g - 1;
      const Tail& t = tails[src];
      blocks[l] = b < t.data_blocks ? msgs[src].data() + b * kBlock
                                    : t.pad + (b - t.data_blocks) * kBlock;
    }
    be.compress(state, blocks);
  }

  constexpr std::size_t kOut = std::tuple_size_v<Out>;
  static_assert(kOut <= Sha512::kDigestSize);
  for (std::size_t l = 0; l < g; ++l) {
    std::uint8_t* dst = outs[l].data();
    for (std::size_t w = 0; 8 * w < kOut; ++w) {
      const std::uint64_t be_word = to_be64(state[w][l]);
      std::memcpy(dst + 8 * w, &be_word, std::min<std::size_t>(8, kOut - 8 * w));
    }
  }
}

/// outs[i] = the first Out-size bytes of SHA-512(msgs[i]).  Greedily
/// groups runs of messages with the same padded block count into lane
/// groups; a run shorter than kMinLaneGroup goes through the scalar class.
template <typename Out>
void hash_batch(const ByteSpan* msgs, std::size_t n, Out* outs) {
  const Backend& be = backend();
  std::uint64_t lane_digests = 0;
  std::uint64_t lane_bytes = 0;
  std::uint64_t lane_groups = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    if (be.lanes > 1) {
      const std::size_t nb = padded_blocks(msgs[i].size());
      while (j < n && j - i < be.lanes && padded_blocks(msgs[j].size()) == nb) ++j;
    }
    const std::size_t g = j - i;
    if (g >= kMinLaneGroup) {
      run_group(be, msgs + i, g, outs + i);
      lane_digests += g;
      for (std::size_t k = i; k < j; ++k) lane_bytes += msgs[k].size();
      ++lane_groups;
    } else {
      for (std::size_t k = i; k < j; ++k) {
        const Sha512::Digest full = Sha512::hash(msgs[k]);
        std::memcpy(outs[k].data(), full.data(), outs[k].size());
      }
    }
    i = j;
  }
  // The scalar class counts inside finish(); the lane groups never reach
  // it, so account for them here, once per call.
  if (lane_groups != 0) {
    SPIDER_OBS_COUNT("crypto/sha512_digests", lane_digests);
    SPIDER_OBS_COUNT("crypto/sha512_bytes", lane_bytes);
    SPIDER_OBS_COUNT("crypto/sha512_lane_groups", lane_groups);
  }
}

}  // namespace

std::size_t sha512_lanes() { return backend().lanes; }

void sha512_batch(const ByteSpan* msgs, std::size_t n, Sha512::Digest* outs) {
  hash_batch(msgs, n, outs);
}

void digest20_batch(const ByteSpan* msgs, std::size_t n, Digest20* outs) {
  hash_batch(msgs, n, outs);
}

}  // namespace spider::crypto
