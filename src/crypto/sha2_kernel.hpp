// Internal SHA-512 kernel interface shared by the streaming class
// (sha2.cpp) and the multi-lane backends (sha2_multi_*.cpp).  Not part of
// the public crypto API; the differential battery calls every build
// directly.
//
// One-message kernel: sha512_blocks compresses `blocks` consecutive
// 128-byte blocks starting at `data` (any alignment) into `state`.  It
// dispatches, once per process, to the BMI2 build when the CPU has BMI2
// and to the portable build otherwise; both builds share one body.
//
// Multi-lane kernels: state is word-major — state[w][l] is word w of lane l — so
// a backend loads one SIMD vector per state word with a single unaligned
// load.  Rows are fixed at kMaxLanes wide; a 4-lane backend simply uses
// the first four columns.  `blocks[l]` points at lane l's next 128-byte
// message block.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spider::crypto::detail {

inline constexpr std::size_t kMaxLanes = 8;

extern const std::uint64_t kSha512K[80];
extern const std::uint64_t kSha512Iv[8];

void sha512_blocks(std::uint64_t state[8], const std::uint8_t* data, std::size_t blocks);
void sha512_blocks_portable(std::uint64_t state[8], const std::uint8_t* data,
                            std::size_t blocks);
/// True when the running CPU (and this build) can execute the BMI2 build.
bool sha512_blocks_bmi2_supported();
void sha512_blocks_bmi2(std::uint64_t state[8], const std::uint8_t* data, std::size_t blocks);

/// True when the running CPU (and this build) can execute the 4-lane
/// AVX2 kernel.
bool sha512_x4_supported();
void sha512_x4_compress(std::uint64_t state[8][kMaxLanes],
                        const std::uint8_t* const blocks[kMaxLanes]);

/// True when the running CPU (and this build) can execute the 8-lane
/// AVX-512 kernel.
bool sha512_x8_supported();
void sha512_x8_compress(std::uint64_t state[8][kMaxLanes],
                        const std::uint8_t* const blocks[kMaxLanes]);

}  // namespace spider::crypto::detail
