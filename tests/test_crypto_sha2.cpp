// SHA-256 / SHA-512 against FIPS 180-4 / NIST CAVP reference vectors, plus
// streaming-equivalence and truncated-digest tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha2.hpp"
#include "crypto/sha2_multi.hpp"
#include "util/bytes.hpp"

namespace sc = spider::crypto;
namespace su = spider::util;

namespace {
su::ByteSpan span_of(const std::string& s) {
  return su::ByteSpan{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

template <typename Digest>
std::string hex_of(const Digest& d) {
  return su::to_hex(su::ByteSpan{d.data(), d.size()});
}
}  // namespace

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sc::Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sc::Sha256::hash(span_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sc::Sha256::hash(span_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  sc::Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex_of(sc::Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(hex_of(sc::Sha512::hash(span_of("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sc::Sha512::hash(span_of(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionAs) {
  sc::Sha512 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, StreamingMatchesOneShot) {
  // Split the same message at every possible boundary; digests must agree.
  std::string msg(300, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<char>(i * 31 + 7);
  auto expected = sc::Sha512::hash(span_of(msg));
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{127}, std::size_t{128}, std::size_t{129}, std::size_t{299}}) {
    sc::Sha512 h;
    h.update(su::ByteSpan{reinterpret_cast<const std::uint8_t*>(msg.data()), split});
    h.update(su::ByteSpan{reinterpret_cast<const std::uint8_t*>(msg.data()) + split, msg.size() - split});
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha256, StreamingMatchesOneShot) {
  std::string msg(200, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<char>(i * 17 + 3);
  auto expected = sc::Sha256::hash(span_of(msg));
  for (std::size_t split : {std::size_t{1}, std::size_t{55}, std::size_t{56}, std::size_t{63},
                            std::size_t{64}, std::size_t{65}}) {
    sc::Sha256 h;
    h.update(su::ByteSpan{reinterpret_cast<const std::uint8_t*>(msg.data()), split});
    h.update(su::ByteSpan{reinterpret_cast<const std::uint8_t*>(msg.data()) + split, msg.size() - split});
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha512, ReusableAfterFinish) {
  sc::Sha512 h;
  h.update(span_of("abc"));
  auto first = h.finish();
  h.update(span_of("abc"));
  auto second = h.finish();
  EXPECT_EQ(first, second);
}

TEST(Digest20, IsSha512Prefix) {
  auto full = sc::Sha512::hash(span_of("abc"));
  auto trunc = sc::digest20(span_of("abc"));
  EXPECT_TRUE(std::equal(trunc.begin(), trunc.end(), full.begin()));
}

TEST(Digest20, ConcatMatchesManualConcat) {
  su::Bytes a = {1, 2, 3};
  su::Bytes b = {4, 5};
  auto joined = su::concat({a, b});
  EXPECT_EQ(sc::digest20_concat({a, b}), sc::digest20(joined));
}

TEST(Digest20, DistinctInputsDistinctDigests) {
  EXPECT_NE(sc::digest20(span_of("a")), sc::digest20(span_of("b")));
}

// Boundary lengths around the SHA-512 padding edge (112 mod 128).
TEST(Sha512, PaddingBoundaryLengths) {
  for (std::size_t len : {std::size_t{111}, std::size_t{112}, std::size_t{113}, std::size_t{127},
                          std::size_t{128}, std::size_t{129}, std::size_t{239}, std::size_t{240}}) {
    std::string msg(len, 'x');
    // Verify streaming one byte at a time matches one-shot at these edges.
    sc::Sha512 h;
    for (char c : msg) h.update(su::ByteSpan{reinterpret_cast<const std::uint8_t*>(&c), 1});
    EXPECT_EQ(h.finish(), sc::Sha512::hash(span_of(msg))) << "len " << len;
  }
}

TEST(Sha256, PaddingBoundaryLengths) {
  for (std::size_t len : {std::size_t{55}, std::size_t{56}, std::size_t{57}, std::size_t{63},
                          std::size_t{64}, std::size_t{65}}) {
    std::string msg(len, 'y');
    sc::Sha256 h;
    for (char c : msg) h.update(su::ByteSpan{reinterpret_cast<const std::uint8_t*>(&c), 1});
    EXPECT_EQ(h.finish(), sc::Sha256::hash(span_of(msg))) << "len " << len;
  }
}

TEST(ConstantTimeEqual, SpansAndDigests) {
  su::Bytes a = {1, 2, 3};
  su::Bytes b = {1, 2, 3};
  su::Bytes c = {1, 2, 4};
  su::Bytes d = {1, 2};
  EXPECT_TRUE(sc::constant_time_equal(a, b));
  EXPECT_FALSE(sc::constant_time_equal(a, c));
  EXPECT_FALSE(sc::constant_time_equal(a, d));

  su::Digest20 x = sc::digest20(a);
  su::Digest20 y = sc::digest20(b);
  su::Digest20 z = sc::digest20(c);
  EXPECT_TRUE(sc::constant_time_equal(x, y));
  EXPECT_FALSE(sc::constant_time_equal(x, z));
}

// --------------------------------------------------------------------------
// CAVP-style SHA-512 known-answer tests: byte-oriented messages chosen to
// straddle every padding boundary (111/112/113 bytes) and to span one, two
// and three compression blocks.  Expected digests were produced with an
// independent reference implementation (Python hashlib).
namespace {
su::Bytes pattern(std::size_t n, unsigned mul, unsigned add) {
  su::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * mul + add) % 256);
  }
  return out;
}
std::string sha512_hex(const su::Bytes& m) {
  return hex_of(sc::Sha512::hash(su::ByteSpan{m.data(), m.size()}));
}
}  // namespace

TEST(Sha512Kat, SingleZeroByte) {
  EXPECT_EQ(sha512_hex(su::Bytes{0x00}),
            "b8244d028981d693af7b456af8efa4cad63d282e19ff14942c246e50d9351d22"
            "704a802a71c3580b6370de4ceb293c324a8423342557d4e5c38438f0e36910ee");
}

TEST(Sha512Kat, PaddingBoundary111Bytes) {
  // 111 bytes: padding and length still fit in the first block.
  EXPECT_EQ(sha512_hex(pattern(111, 1, 0)),
            "a1a111449b198d9b1f538bad7f3fc1022b3a5b1a5e90a0bc860de8512746cbc3"
            "1599e6c834de3a3235327af0b51ff57bf7acf1974a73014d9c3953812edc7c8d");
}

TEST(Sha512Kat, PaddingBoundary112Bytes) {
  // 112 bytes: the length no longer fits; a second block is required.
  EXPECT_EQ(sha512_hex(pattern(112, 1, 0)),
            "c5fbd731d19d2ae1180f001be72c2c1aaba1d7b094b3748880e24593b8e117a7"
            "50e11c1bd867cc2f96dace8c8b74abd2d5c4f236be444e77d30d1916174070b9");
}

TEST(Sha512Kat, PaddingBoundary113Bytes) {
  EXPECT_EQ(sha512_hex(pattern(113, 1, 0)),
            "61b2e77db697dfe5571fff3ed06bd60c41e1e7b7c08a80de01cb16526d9a9a52"
            "d690dfbe792278a60f6e2b4c57a97c729773f26e258d2393890c985d645f6715");
}

TEST(Sha512Kat, ExactlyOneBlock) {
  EXPECT_EQ(sha512_hex(pattern(128, 7, 0)),
            "6e7f10bc87eacc3e98014eaade39e273285ba13c79231361c24c304a8d409018"
            "f543a28847fcc829b87fdde605caa5ab5fdb00e296737fa4687d5ee8d130ceea");
}

TEST(Sha512Kat, OneBlockPlusOneByte) {
  EXPECT_EQ(sha512_hex(pattern(129, 7, 0)),
            "cdc5b3e2f22ed03935760389c88672f8b3c867503aff012d5f9653e426c9b530"
            "e091356459108edadc8e09a444a50415b30d38f9d75cb8c456fec0ae3ca6901f");
}

TEST(Sha512Kat, ThreeBlockMessage) {
  EXPECT_EQ(sha512_hex(pattern(384, 31, 5)),
            "2989bfbe47c9c0f08e61fec2218378443322da0d7515553336d8b89b877e2180"
            "9ddb20cf2f3c874445e37fdc9f7162b8aaca7553362e5695dbc8c1c16b0381d0");
}

// Every length where finish() changes how it pads: empty, one byte, the
// last length whose length field fits the first block (111), the first
// that needs a second block (112, 113), the block edge (127..129) and the
// same edges one block later (239..241, 256).  Message bytes are
// (13 * i + 7) mod 256; the digests come from Python's hashlib, so a
// padding bug shared by the scalar class and the lane batcher still fails.
TEST(Sha512Kat, PaddingLengthSweep) {
  struct Kat {
    std::size_t len;
    const char* hex;
  };
  const Kat kats[] = {
      {0,
       "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
       "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
      {1,
       "365d11a1dfe610b60efa996136d37ab8afd2715b8c6bc2850dc5e6005b702bb9"
       "f59b0f306ecb2c43ee44c429967d45843524eb2f7c16aab9bde142ee268b51c6"},
      {111,
       "c81588f7b29fd580dcb2ca708f2b58717a1dd028a25cb1cdcf3c09290312284d"
       "03e2421fb18710f4dc98670ea44d2e6f1f638d8b5e465431c44ed285ae7c11ae"},
      {112,
       "6b82e3981ff49bf14b60e0986231f76120ef510efd89c336e1e76086da536e59"
       "d357e069971e8fe4c4d8e0e451f364abeae8fe8ca7f92da2dd4640498d46dd7f"},
      {113,
       "6abc57b63956bca02980a78cf7c501c27e9186a6c1549dbb030f412e3b35a69a"
       "9c8c1d07ade715d9c8070bfec2daef80c4bb727c603c2dad3b5a404b63cc1924"},
      {127,
       "ce7f3509b998ac61c2513a12118166cb3a60fe01def0026db9ee708dbe2682cb"
       "b18ad33170ec54d4c4eac5e371456e64831190669c3fecc5b5ac25b4fea4adc7"},
      {128,
       "f15818d610f80f1bf016c361c138aed2b8c4cda61390e77903bb6380fd794236"
       "15fadf14380e4db96e3cdfb8f737239653205a41bb7139f613c41a80a12e7fdc"},
      {129,
       "261cffcb6002c9eb5a63e483f2293835fa541309378ce6acf3e837e31be13200"
       "014f9523af6d92f10c6f30e605de5c7e0f0ca1a324296a18c34c53f57037ea2a"},
      {239,
       "9d8efda6b60ef984eb0f8a5fd7218c02abf6285e59f7890e207cd717d9732e2d"
       "766fdfd7dae2fdf15484374f6d738eedeeb102ad8cfcbd1586c71d4d17b0bffb"},
      {240,
       "8ea93bf64cbb10d9c296ee6369443009a80f39fa1acbc2cd64349c38fff5b770"
       "66d0e9d324e8b9df80f8a9df45e4a73b1f049e1b91b5682c7bda3ea7d3dd8bc4"},
      {241,
       "97e15d101eda8b17773a201325258bc770d6a5f3ce0ff09783080ec319fcd3d9"
       "656775dea449c55d8d0f72bea6eca1b8441922a3dfa58439074cbafdc2bca30c"},
      {256,
       "b7cef8198828f9e22bed31dcc4ae46d71b6ffa9a91e53a935179057550318265"
       "7876d10b308f96bd84119df72444732bd25e563be2e12ae7819fce709cb4a029"},
  };
  std::vector<su::Bytes> msgs;
  for (const Kat& kat : kats) {
    msgs.push_back(pattern(kat.len, 13, 7));
    EXPECT_EQ(sha512_hex(msgs.back()), kat.hex) << "len " << kat.len;
  }
  // The same messages through the lane batcher, whose neighbouring lengths
  // share padded block counts and so run as lane groups.
  std::vector<su::ByteSpan> spans;
  for (const auto& m : msgs) spans.emplace_back(m.data(), m.size());
  std::vector<sc::Sha512::Digest> outs(spans.size());
  sc::sha512_batch(spans.data(), spans.size(), outs.data());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(hex_of(outs[i]), kats[i].hex) << "batched len " << kats[i].len;
  }
}

// RFC 4231 HMAC-SHA-512 vectors missing from the original suite: case 4
// (key bytes 0x01..0x19), case 5 (truncated output) and case 7 (both key
// and data longer than the block).
TEST(HmacKat, Rfc4231Case4) {
  su::Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  su::Bytes data(50, 0xcd);
  auto mac = sc::HmacSha512::mac(key, data);
  EXPECT_EQ(hex_of(mac),
            "b0ba465637458c6990e5a8c5f61d4af7e576d97ff94b872de76f8050361ee3db"
            "a91ca5c11aa25eb4d679275cc5788063a5f19741120c4f2de2adebeb10a298dd");
}

TEST(HmacKat, Rfc4231Case5Truncated) {
  su::Bytes key(20, 0x0c);
  const std::string data = "Test With Truncation";
  auto mac = sc::HmacSha512::mac(key, span_of(data));
  // The RFC publishes only the first 128 bits for this case.
  EXPECT_EQ(hex_of(mac).substr(0, 32), "415fad6271580a531d4179bc891d87a6");
}

TEST(HmacKat, Rfc4231Case7LongKeyAndData) {
  su::Bytes key(131, 0xaa);
  const std::string data =
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.";
  auto mac = sc::HmacSha512::mac(key, span_of(data));
  EXPECT_EQ(hex_of(mac),
            "e37b6a775dc87dbaa4dfa9f96e5e3ffddebd71f8867289865df5a32d20cdc944"
            "b6022cac3c4982b10d5eeb55c3e4de15134676fb6de0446065c97440fa8c6a58");
}
