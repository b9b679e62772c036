// Multi-lane SHA-512: hashes batches of independent messages in parallel
// SIMD lanes (8-wide AVX-512, 4-wide AVX2, scalar otherwise).
//
// SPIDeR's labeling workload is millions of short, independent,
// equal-length messages (41-byte PRF inputs, 21-byte leaf inputs, 60-byte
// inner-node inputs, k*20-byte prefix-node inputs), which is exactly the
// shape a lane-parallel compression function wants: the batcher groups
// consecutive messages with the same padded block count, runs one
// transposed compression per block across the group, and falls back to
// the scalar streaming class for leftovers.  Results are bit-identical to
// Sha512::hash on every input — the differential battery
// (tests/test_crypto_diff.cpp) enforces this.
#pragma once

#include <cstddef>

#include "crypto/sha2.hpp"
#include "util/bytes.hpp"

namespace spider::crypto {

/// Lanes the fastest available backend processes per compression call:
/// 8 (AVX-512), 4 (AVX2) or 1 (scalar fallback).  Constant for the life of
/// the process.
std::size_t sha512_lanes();

/// outs[i] = SHA-512(msgs[i]) for i in [0, n).
void sha512_batch(const ByteSpan* msgs, std::size_t n, Sha512::Digest* outs);

/// outs[i] = digest20(msgs[i]): the truncated form every commitment label
/// uses (paper §7.1).
void digest20_batch(const ByteSpan* msgs, std::size_t n, Digest20* outs);

}  // namespace spider::crypto
