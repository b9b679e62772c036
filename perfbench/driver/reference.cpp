#include "reference.hpp"

#include <time.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {
namespace {

using Lanes = std::uint64_t __attribute__((vector_size(64)));

constexpr int kHashBlocks = 20'000;
constexpr std::uint64_t kMixRounds = 1'000'000;
constexpr std::size_t kWalkEntries = std::size_t{4} << 20;  // 16 MiB of u32
constexpr int kWalkSteps = 60'000;

std::vector<std::uint32_t> walk_table;
volatile std::uint64_t sink = 0;

double thread_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("cannot read the thread CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The 80 rounds and message schedule of a SHA-512 block, without its
// constants, in 8 lanes; the compiler's AVX-512 clone is what an AVX-512
// host runs.  (A macro, not a function: a function taking the lanes by
// value would have a different ABI in each clone.)
#define ROR(x, n) (((x) >> (n)) | ((x) << (64 - (n))))
__attribute__((target_clones("avx512f", "default"))) std::uint64_t hash_rounds() {
  Lanes state[8], w[16];
  for (unsigned i = 0; i < 8; ++i) state[i] = Lanes{} + (0x6a09e667f3bcc908ull + i);
  for (unsigned i = 0; i < 16; ++i) w[i] = Lanes{} + 0x428a2f98d728ae22ull * (i + 1);
  for (int block = 0; block < kHashBlocks; ++block) {
    Lanes a = state[0], b = state[1], c = state[2], d = state[3];
    Lanes e = state[4], f = state[5], g = state[6], h = state[7];
    for (int r = 0; r < 80; ++r) {
      Lanes& wr = w[r & 15];
      if (r >= 16) {
        const Lanes w15 = w[(r + 1) & 15], w2 = w[(r + 14) & 15];
        wr += (ROR(w15, 1) ^ ROR(w15, 8) ^ (w15 >> 7)) + w[(r + 9) & 15] +
              (ROR(w2, 19) ^ ROR(w2, 61) ^ (w2 >> 6));
      }
      const Lanes t1 = h + (ROR(e, 14) ^ ROR(e, 18) ^ ROR(e, 41)) + ((e & f) ^ (~e & g)) + wr;
      const Lanes t2 =
          (ROR(a, 28) ^ ROR(a, 34) ^ ROR(a, 39)) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
  return state[0][0] ^ state[7][7];
}
#undef ROR

// Eight interleaved scalar chains of shifts, logic, adds and multiplies.
std::uint64_t scalar_mix() {
  std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::uint64_t i = 0; i < kMixRounds; ++i) {
    for (int k = 0; k < 8; ++k) {
      const std::uint64_t y = x[(k + 1) & 7];
      x[k] += ((y >> 14) | (y << 50)) ^ (x[(k + 3) & 7] & x[(k + 5) & 7]);
      x[k] ^= i * 0x9E3779B97F4A7C15ull;
    }
  }
  return x[0] ^ x[7];
}

// Dependent loads along one random cycle through the table.
std::uint64_t random_walk() {
  std::uint32_t at = 0;
  for (int i = 0; i < kWalkSteps; ++i) at = walk_table[at];
  return at;
}

}  // namespace

void prepare_reference() {
  if (!walk_table.empty()) return;
  std::vector<std::uint32_t> order(kWalkEntries);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
  spider::util::SplitMix64 rng(0x5EEDull);
  for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
  walk_table.resize(kWalkEntries);
  for (std::size_t i = 0; i < order.size(); ++i) {
    walk_table[order[i]] = order[(i + 1) % order.size()];
  }
}

double reference_s() {
  prepare_reference();
  const double start = thread_cpu_s();
  sink = sink + hash_rounds() + scalar_mix() + random_walk();
  return thread_cpu_s() - start;
}

}  // namespace perfbench
