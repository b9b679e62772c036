#include "crypto/sha2.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha2_kernel.hpp"
#include "obs/metrics.hpp"

namespace spider::crypto {

// Round constants and IV shared with the multi-lane kernels
// (sha2_multi_*.cpp) so every backend provably runs the same schedule.
namespace detail {

const std::uint64_t kSha512K[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL, 0xe9b5dba58189dbbcULL,
    0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL, 0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL,
    0xd807aa98a3030242ULL, 0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL, 0xc19bf174cf692694ULL,
    0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL, 0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL,
    0x2de92c6f592b0275ULL, 0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL, 0xbf597fc7beef0ee4ULL,
    0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL, 0x06ca6351e003826fULL, 0x142929670a0e6e70ULL,
    0x27b70a8546d22ffcULL, 0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL, 0x92722c851482353bULL,
    0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL, 0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL,
    0xd192e819d6ef5218ULL, 0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL, 0x34b0bcb5e19b48a8ULL,
    0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL, 0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL,
    0x748f82ee5defb2fcULL, 0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL, 0xc67178f2e372532bULL,
    0xca273eceea26619cULL, 0xd186b8c721c0c207ULL, 0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL,
    0x06f067aa72176fbaULL, 0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL, 0x431d67c49c100d4cULL,
    0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL, 0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

const std::uint64_t kSha512Iv[8] = {0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
                                    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
                                    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
                                    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};

}  // namespace detail

namespace {

constexpr std::uint32_t kK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr32(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) | (std::uint32_t(p[2]) << 8) |
         std::uint32_t(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

}  // namespace

// ---------------------------------------------------------------- SHA-256

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::compress(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t t1 = h + s1 + ch + kK256[i] + w[i];
    std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t t2 = s0 + maj;
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  state_[0] += a; state_[1] += b; state_[2] += c; state_[3] += d;
  state_[4] += e; state_[5] += f; state_[6] += g; state_[7] += h;
}

void Sha256::update(ByteSpan data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == buffer_.size()) {
      compress(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (data.size() - off >= 64) {
    compress(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad = 0x80;
  update(ByteSpan{&pad, 1});
  std::uint8_t zero = 0;
  while (buffer_len_ != 56) update(ByteSpan{&zero, 1});
  std::uint8_t len_be[8];
  store_be64(len_be, bit_len);
  // Bypass update()'s length accounting for the final length field.
  std::memcpy(buffer_.data() + 56, len_be, 8);
  compress(buffer_.data());
  Digest out{};
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  reset();
  return out;
}

Sha256::Digest Sha256::hash(ByteSpan data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

// ---------------------------------------------------------------- SHA-512

// The block kernel: one body, compiled twice.  sha512_blocks_portable runs
// on any CPU; sha512_blocks_bmi2 is the same body under target("bmi2"),
// where every rotate is a three-operand rorx that neither overwrites its
// source nor touches the flags.  The state stays in registers across all
// blocks of a call, the message schedule is a rolling 16-word window, and
// the 80 rounds are unrolled at compile time.

namespace {

using u64 = std::uint64_t;

[[gnu::always_inline]] inline u64 load_be64(const std::uint8_t* p) {
  u64 v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  return v;
}

/// Round J: extends the schedule (from round 16 on) into w[J % 16], then
/// folds the round into the state.  Only d and h change; the caller
/// rotates the eight roles instead of moving the words.  `bc` carries
/// b ^ c in and a ^ b out: the next round's b ^ c, so Maj costs three
/// operations instead of four.
template <int J>
[[gnu::always_inline]] inline void sha512_round(u64 a, u64 b, u64& d, u64 e, u64 f, u64 g, u64& h,
                                                u64& bc, u64 (&w)[16]) {
  if constexpr (J >= 16) {
    const u64 w15 = w[(J - 15) & 15];
    const u64 w2 = w[(J - 2) & 15];
    w[J & 15] += (std::rotr(w15, 1) ^ std::rotr(w15, 8) ^ (w15 >> 7)) + w[(J - 7) & 15] +
                 (std::rotr(w2, 19) ^ std::rotr(w2, 61) ^ (w2 >> 6));
  }
  const u64 t1 = h + detail::kSha512K[J] + w[J & 15] + (g ^ (e & (f ^ g))) +
                 (std::rotr(e, 14) ^ std::rotr(e, 18) ^ std::rotr(e, 41));
  const u64 ab = a ^ b;
  d += t1;
  h = t1 + (b ^ (ab & bc)) + (std::rotr(a, 28) ^ std::rotr(a, 34) ^ std::rotr(a, 39));
  bc = ab;
}

/// Rounds J..J+7: after eight rounds every role is back on its own word.
template <int J>
[[gnu::always_inline]] inline void sha512_rounds8(u64& a, u64& b, u64& c, u64& d, u64& e, u64& f,
                                                  u64& g, u64& h, u64& bc, u64 (&w)[16]) {
  sha512_round<J + 0>(a, b, d, e, f, g, h, bc, w);
  sha512_round<J + 1>(h, a, c, d, e, f, g, bc, w);
  sha512_round<J + 2>(g, h, b, c, d, e, f, bc, w);
  sha512_round<J + 3>(f, g, a, b, c, d, e, bc, w);
  sha512_round<J + 4>(e, f, h, a, b, c, d, bc, w);
  sha512_round<J + 5>(d, e, g, h, a, b, c, bc, w);
  sha512_round<J + 6>(c, d, f, g, h, a, b, bc, w);
  sha512_round<J + 7>(b, c, e, f, g, h, a, bc, w);
}

[[gnu::always_inline]] inline void sha512_blocks_body(u64 state[8], const std::uint8_t* data,
                                                      std::size_t blocks) {
  u64 a = state[0], b = state[1], c = state[2], d = state[3];
  u64 e = state[4], f = state[5], g = state[6], h = state[7];
  for (; blocks != 0; --blocks, data += 128) {
    u64 w[16] = {load_be64(data),      load_be64(data + 8),   load_be64(data + 16),
                 load_be64(data + 24), load_be64(data + 32),  load_be64(data + 40),
                 load_be64(data + 48), load_be64(data + 56),  load_be64(data + 64),
                 load_be64(data + 72), load_be64(data + 80),  load_be64(data + 88),
                 load_be64(data + 96), load_be64(data + 104), load_be64(data + 112),
                 load_be64(data + 120)};
    const u64 a0 = a, b0 = b, c0 = c, d0 = d, e0 = e, f0 = f, g0 = g, h0 = h;
    u64 bc = b ^ c;
    sha512_rounds8<0>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<8>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<16>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<24>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<32>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<40>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<48>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<56>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<64>(a, b, c, d, e, f, g, h, bc, w);
    sha512_rounds8<72>(a, b, c, d, e, f, g, h, bc, w);
    a += a0;
    b += b0;
    c += c0;
    d += d0;
    e += e0;
    f += f0;
    g += g0;
    h += h0;
  }
  state[0] = a;
  state[1] = b;
  state[2] = c;
  state[3] = d;
  state[4] = e;
  state[5] = f;
  state[6] = g;
  state[7] = h;
}

}  // namespace

namespace detail {

void sha512_blocks_portable(std::uint64_t state[8], const std::uint8_t* data,
                            std::size_t blocks) {
  sha512_blocks_body(state, data, blocks);
}

#if defined(__x86_64__) && defined(__GNUC__)

bool sha512_blocks_bmi2_supported() { return __builtin_cpu_supports("bmi2") != 0; }

__attribute__((target("bmi2"))) void sha512_blocks_bmi2(std::uint64_t state[8],
                                                        const std::uint8_t* data,
                                                        std::size_t blocks) {
  sha512_blocks_body(state, data, blocks);
}

#else  // stub: no BMI2 target on this toolchain or architecture

bool sha512_blocks_bmi2_supported() { return false; }
void sha512_blocks_bmi2(std::uint64_t state[8], const std::uint8_t* data, std::size_t blocks) {
  sha512_blocks_portable(state, data, blocks);
}

#endif

void sha512_blocks(std::uint64_t state[8], const std::uint8_t* data, std::size_t blocks) {
  static const auto kernel =
      sha512_blocks_bmi2_supported() ? &sha512_blocks_bmi2 : &sha512_blocks_portable;
  kernel(state, data, blocks);
}

}  // namespace detail

void Sha512::reset() {
  for (int i = 0; i < 8; ++i) state_[static_cast<std::size_t>(i)] = detail::kSha512Iv[i];
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha512::update(ByteSpan data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == buffer_.size()) {
      detail::sha512_blocks(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Every remaining full block goes to the kernel in one call.
  const std::size_t blocks = (data.size() - off) / 128;
  if (blocks != 0) {
    detail::sha512_blocks(state_.data(), data.data() + off, blocks);
    off += blocks * 128;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha512::Digest Sha512::finish() {
  // Counted here rather than in update(), so the count is one per digest
  // and the byte total is the message length without padding.
  SPIDER_OBS_COUNT("crypto/sha512_digests", 1);
  SPIDER_OBS_COUNT("crypto/sha512_bytes", total_len_);
  const std::uint64_t bit_len = total_len_ * 8;
  // update() compresses every full block, so at least the marker byte fits.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 112) {
    // The 16-byte length no longer fits behind the marker: zero-fill and
    // compress this block, then put the length in a block of its own.
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    detail::sha512_blocks(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // 128-bit length: high 8 bytes are zero for any message under 2^61 bytes.
  std::memset(buffer_.data() + buffer_len_, 0, 120 - buffer_len_);
  store_be64(buffer_.data() + 120, bit_len);
  detail::sha512_blocks(state_.data(), buffer_.data(), 1);
  Digest out{};
  for (int i = 0; i < 8; ++i) store_be64(out.data() + 8 * i, state_[i]);
  reset();
  return out;
}

Sha512::Digest Sha512::hash(ByteSpan data) {
  Sha512 h;
  h.update(data);
  return h.finish();
}

Digest20 digest20(ByteSpan data) {
  auto full = Sha512::hash(data);
  Digest20 out{};
  std::memcpy(out.data(), full.data(), out.size());
  return out;
}

Digest20 digest20_concat(std::initializer_list<ByteSpan> parts) {
  Sha512 h;
  for (const auto& p : parts) h.update(p);
  auto full = h.finish();
  Digest20 out{};
  std::memcpy(out.data(), full.data(), out.size());
  return out;
}

}  // namespace spider::crypto
