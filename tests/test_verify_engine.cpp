// The src/verify session engine: the pipelined/cached/batched
// configuration must be observationally identical to the sequential
// baseline — same verdicts, same evidence strings, same detections —
// across clean and misbehaving deployments.  Plus the unit batteries for
// the pieces: ProofPathCache under eviction and cross-subtree collisions,
// rsa_verify_batch against the scalar verifier (including one-bad-in-batch
// isolation), and the generator-side MttProofMemo bit-identity contract.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/mtt.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "spider/node_wire.hpp"
#include "util/rng.hpp"
#include "verify/proof_path_cache.hpp"
#include "verify/session.hpp"

namespace sv = spider::verify;
namespace sp = spider::proto;
namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace st = spider::trace;
namespace sn = spider::netsim;
namespace su = spider::util;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

st::RouteViewsTrace engine_trace(std::uint64_t seed) {
  st::TraceConfig config;
  config.num_prefixes = 250;
  config.num_updates = 100;
  config.duration = 20 * kSecond;
  config.seed = seed;
  return st::generate(config);
}

sp::DeploymentConfig engine_config(bool rsa = false) {
  sp::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};
  if (rsa) config.scheme = sp::DeploymentConfig::SignScheme::kRsa;
  return config;
}

struct EngineWorld {
  st::RouteViewsTrace trace;
  sp::Fig5Deployment deploy;
  sn::Time commit_time = 0;

  explicit EngineWorld(std::uint64_t seed = 5, bool rsa = false,
                       std::function<void(sp::Fig5Deployment&)> before = {})
      : trace(engine_trace(seed)), deploy(engine_config(rsa)) {
    if (before) before(deploy);
    auto start = deploy.run_setup(trace, 20 * kSecond);
    deploy.run_replay(trace, start, 5 * kSecond);
    commit_time = deploy.recorder(5).make_commitment().timestamp;
    deploy.sim().run();
  }
};

void expect_same_detection(const std::optional<sc::Detection>& a,
                           const std::optional<sc::Detection>& b, const char* what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (!a) return;
  EXPECT_EQ(a->kind, b->kind) << what;
  EXPECT_EQ(a->accused, b->accused) << what;
  EXPECT_EQ(a->detail, b->detail) << what;
}

/// The differential contract: every observable verdict and its evidence
/// string must match between the two configurations.
void expect_identical_reports(const sp::VerificationReport& seq,
                              const sp::VerificationReport& pip) {
  EXPECT_EQ(seq.elector, pip.elector);
  EXPECT_EQ(seq.commit_time, pip.commit_time);
  EXPECT_EQ(seq.root_matches, pip.root_matches);
  expect_same_detection(seq.equivocation, pip.equivocation, "equivocation");
  ASSERT_EQ(seq.verdicts.size(), pip.verdicts.size());
  for (std::size_t i = 0; i < seq.verdicts.size(); ++i) {
    EXPECT_EQ(seq.verdicts[i].neighbor, pip.verdicts[i].neighbor);
    expect_same_detection(seq.verdicts[i].as_producer, pip.verdicts[i].as_producer, "as_producer");
    expect_same_detection(seq.verdicts[i].as_consumer, pip.verdicts[i].as_consumer, "as_consumer");
    expect_same_detection(seq.verdicts[i].extended, pip.verdicts[i].extended, "extended");
  }
}

void run_differential(EngineWorld& world, bool expect_clean) {
  auto seq = sv::run_session(world.deploy, 5, world.commit_time, sv::SessionConfig{},
                             /*extended=*/true);
  auto pip = sv::run_session(world.deploy, 5, world.commit_time, sv::pipelined_config(),
                             /*extended=*/true);
  EXPECT_EQ(seq.report.clean(), expect_clean);
  expect_identical_reports(seq.report, pip.report);
  // The sequential baseline must stay honest: no cache, no memo, no
  // batching.
  EXPECT_EQ(seq.stats.cache_hits, 0u);
  EXPECT_EQ(seq.stats.cache_misses, 0u);
  EXPECT_EQ(seq.stats.signature_batches, 0u);
  EXPECT_EQ(seq.stats.bytes_deduped, 0u);
  // And both sides check the same number of proofs.
  EXPECT_EQ(seq.stats.proofs_checked, pip.stats.proofs_checked);
}

}  // namespace

// ------------------------------------------- pipelined-vs-sequential battery

TEST(VerifyEngineDifferential, CleanAcrossSeeds) {
  for (std::uint64_t seed : {5u, 11u, 23u}) {
    EngineWorld world(seed);
    run_differential(world, /*expect_clean=*/true);
  }
}

TEST(VerifyEngineDifferential, OmittedInput) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, Equivocation) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.recorder(5).faults().equivocate_to = {2};
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, WithheldCommitment) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.recorder(5).faults().withhold_commit_from = {2};
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, BrokenPromise) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    // Promise "never export long paths" to AS 6, then keep exporting
    // them anyway (§7.4 fault 2).
    sc::Promise never_long(10);
    never_long.add_preference(0, 1);
    for (sc::ClassId cls = 2; cls < 9; ++cls) never_long.add_preference(9, cls);
    never_long.add_preference(1, 9);
    deploy.recorder(5).set_promise(6, never_long);
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, RsaSchemeWithBatching) {
  EngineWorld world(5, /*rsa=*/true);
  auto seq = sv::run_session(world.deploy, 5, world.commit_time, sv::SessionConfig{},
                             /*extended=*/true);
  auto pip = sv::run_session(world.deploy, 5, world.commit_time, sv::pipelined_config(),
                             /*extended=*/true);
  expect_identical_reports(seq.report, pip.report);
  EXPECT_GT(pip.stats.signature_batches, 0u);
  EXPECT_EQ(pip.stats.bad_signatures, 0u);
  // Every proof round is signature-checked; the 5 extended RE-ANNOUNCE
  // round-trips carry no proof bundle.
  EXPECT_EQ(pip.stats.signatures_verified + 5, pip.stats.challenge_round_trips);
}

TEST(VerifyEngine, PipelinedStatsShowTheCacheWorking) {
  EngineWorld world;
  auto pip = sv::run_session(world.deploy, 5, world.commit_time, sv::pipelined_config(),
                             /*extended=*/true);
  EXPECT_GT(pip.stats.cache_hits, 0u);
  EXPECT_GT(pip.stats.digest_ops_saved, 0u);
  EXPECT_GT(pip.stats.bytes_deduped, 0u);
  EXPECT_GT(pip.stats.challenge_round_trips, 6u);  // chunked rounds
  // Shipped and deduped bytes are accounted separately (the satellite
  // fix): dedup never reduces the shipped figure.
  EXPECT_EQ(pip.report.proof_bytes, pip.stats.bytes_shipped);
  EXPECT_EQ(pip.report.proof_bytes_deduped, pip.stats.bytes_deduped);
}

TEST(VerifyEngine, NoCacheConfigDisablesDedup) {
  EngineWorld world;
  auto config = sv::pipelined_config();
  config.use_cache = false;
  auto result = sv::run_session(world.deploy, 5, world.commit_time, config, /*extended=*/true);
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.stats.cache_hits, 0u);
  EXPECT_EQ(result.stats.bytes_deduped, 0u);
  EXPECT_EQ(result.report.proof_bytes_deduped, 0u);
}

// ------------------------------------------------------- round shapes

namespace {

/// The VerifyEngineDifferential worlds: clean seeds and each misbehavior.
struct Scenario {
  const char* name;
  std::uint64_t seed;
  std::function<void(sp::Fig5Deployment&)> before;
};

std::vector<Scenario> scenarios() {
  return {
      {"clean seed 5", 5, {}},
      {"clean seed 11", 11, {}},
      {"clean seed 23", 23, {}},
      {"omitted input", 5,
       [](sp::Fig5Deployment& deploy) {
         deploy.speaker(5).inject_import_filter_fault(2);
         deploy.recorder(5).faults().ignore_inputs = {2};
       }},
      {"equivocation", 5,
       [](sp::Fig5Deployment& deploy) { deploy.recorder(5).faults().equivocate_to = {2}; }},
      {"withheld commitment", 5,
       [](sp::Fig5Deployment& deploy) {
         deploy.recorder(5).faults().withhold_commit_from = {2};
       }},
      {"broken promise", 5,
       [](sp::Fig5Deployment& deploy) {
         sc::Promise never_long(10);
         never_long.add_preference(0, 1);
         for (sc::ClassId cls = 2; cls < 9; ++cls) never_long.add_preference(9, cls);
         never_long.add_preference(1, 9);
         deploy.recorder(5).set_promise(6, never_long);
       }},
  };
}

using FlaggedPairs = std::map<std::pair<sb::AsNumber, std::string>, sc::FaultKind>;

/// The (neighbor, role) pairs a session report flags, outside extended
/// verification.
FlaggedPairs flagged_by(const sp::VerificationReport& report) {
  FlaggedPairs flagged;
  for (const auto& verdict : report.verdicts) {
    if (verdict.as_producer) flagged[{verdict.neighbor, "producer"}] = verdict.as_producer->kind;
    if (verdict.as_consumer) flagged[{verdict.neighbor, "consumer"}] = verdict.as_consumer->kind;
  }
  return flagged;
}

/// What neighbor `neighbor`'s checker holds of AS 5's commitment, with
/// AS 5's promise to it; nullopt when it never received the commitment.
std::optional<sv::CheckerView> view_of(EngineWorld& world, sb::AsNumber neighbor) {
  const auto& promises = world.deploy.recorder(5).promises();
  auto promise_it = promises.find(neighbor);
  return sv::checker_view(world.deploy.recorder(neighbor), 5, world.commit_time,
                          promise_it != promises.end() ? &promise_it->second : nullptr);
}

/// The socket plane's round shape, through the nodes' own round calls:
/// each neighbor asks for `rounds` proof_round_of rounds, each answered by
/// prove_request, shipped through a ProofBundleFrame encode and decode, and
/// checked by check_bundle.  First detection per (neighbor, role) wins, in
/// round order.
FlaggedPairs socket_shape_flags(EngineWorld& world, std::uint32_t rounds) {
  const sv::Prover prover(world.deploy.recorder(5), world.commit_time);
  FlaggedPairs flagged;
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    const auto view = view_of(world, neighbor);
    if (!view) {  // the session's verdict for a commitment never received
      flagged[{neighbor, "consumer"}] = sc::FaultKind::kMissingMessage;
      continue;
    }
    for (std::uint32_t round = 0; round < rounds; ++round) {
      const sp::ProofRequestFrame request{5, world.commit_time, neighbor, round, rounds};
      const auto wire = sp::ProofBundleFrame::decode(sv::prove_request(&prover, request).encode());
      const auto found = sv::check_bundle(*view, wire);
      if (found.producer) flagged.try_emplace({neighbor, "producer"}, found.producer->kind);
      if (found.consumer) flagged.try_emplace({neighbor, "consumer"}, found.consumer->kind);
    }
  }
  return flagged;
}

}  // namespace

TEST(VerifyEngineRoundShape, MultiChunkRoundsMatchSequential) {
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    EngineWorld world(scenario.seed, false, scenario.before);
    auto seq = sv::run_session(world.deploy, 5, world.commit_time, sv::SessionConfig{},
                               /*extended=*/true);
    auto config = sv::pipelined_config();
    config.round_prefixes = 16;
    auto chunked = sv::run_session(world.deploy, 5, world.commit_time, config,
                                   /*extended=*/true);
    expect_identical_reports(seq.report, chunked.report);
    // Every neighbor holding a commitment has more than one chunk.
    EXPECT_GT(chunked.stats.signatures_verified, 2 * seq.stats.signatures_verified);
  }
}

TEST(VerifyEngineRoundShape, SocketRoundsFlagTheSamePairs) {
  std::size_t faulty = 0;
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    EngineWorld world(scenario.seed, false, scenario.before);
    auto seq = sv::run_session(world.deploy, 5, world.commit_time, sv::SessionConfig{},
                               /*extended=*/false);
    const FlaggedPairs expected = flagged_by(seq.report);
    EXPECT_EQ(socket_shape_flags(world, 4), expected);
    faulty += expected.empty() ? 0 : 1;
  }
  EXPECT_EQ(faulty, 4u);  // every misbehavior is flagged on some pair
}

// A well-formed bundle whose proof set does not decode is that role's
// malformed-message detection against the elector, and the other role is
// still checked.
TEST(VerifyEngineRoundShape, UndecodableProofSetIsMalformed) {
  EngineWorld world;
  const sv::Prover prover(world.deploy.recorder(5), world.commit_time);
  const auto view = view_of(world, 6);
  ASSERT_TRUE(view.has_value());
  ASSERT_NE(view->promise, nullptr);
  std::size_t verified = 0;
  const sp::ProofVerifyFn counting_verify = [&verified](const spider::util::Digest20& root,
                                                        std::uint32_t num_classes,
                                                        const sc::MttPrefixProof& proof) {
    ++verified;
    return sc::Mtt::verify(root, num_classes, proof);
  };

  sv::Prover::Round round = prover.round(6, 0, 1, {});
  ASSERT_FALSE(round.producer.items.empty());
  ASSERT_FALSE(round.consumer.items.empty());
  const sv::RoundDetections intact = sv::check_bundle(*view, round.frame);
  EXPECT_FALSE(intact.producer.has_value());
  EXPECT_FALSE(intact.consumer.has_value());

  sp::ProofBundleFrame truncated = round.frame;
  truncated.producer_proofs.resize(truncated.producer_proofs.size() / 2);
  auto found = sv::check_bundle(*view, sp::ProofBundleFrame::decode(truncated.encode()),
                                counting_verify);
  ASSERT_TRUE(found.producer.has_value());
  EXPECT_EQ(found.producer->kind, sc::FaultKind::kMalformedMessage);
  EXPECT_EQ(found.producer->accused, 5u);
  EXPECT_FALSE(found.consumer.has_value());
  EXPECT_EQ(verified, round.consumer.items.size());  // the consumer proofs were checked

  truncated = round.frame;
  truncated.consumer_proofs.resize(truncated.consumer_proofs.size() / 2);
  found = sv::check_bundle(*view, sp::ProofBundleFrame::decode(truncated.encode()));
  EXPECT_FALSE(found.producer.has_value());
  ASSERT_TRUE(found.consumer.has_value());
  EXPECT_EQ(found.consumer->kind, sc::FaultKind::kMalformedMessage);
  EXPECT_EQ(found.consumer->accused, 5u);
}

// Runs the pool workers against the shared generator, proof memo and
// signer; the tsan preset picks this suite up with `ctest -R Tsan`.
TEST(VerifyEngineTsan, PipelinedMatchesSequential) {
  EngineWorld rsa_world(5, /*rsa=*/true);
  EngineWorld faulty_world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  for (EngineWorld* world : {&rsa_world, &faulty_world}) {
    auto seq = sv::run_session(world->deploy, 5, world->commit_time, sv::SessionConfig{},
                               /*extended=*/true);
    auto chunked_config = sv::pipelined_config(4);
    chunked_config.round_prefixes = 16;
    for (const sv::SessionConfig& config : {sv::pipelined_config(4), chunked_config}) {
      auto pip = sv::run_session(world->deploy, 5, world->commit_time, config,
                                 /*extended=*/true);
      expect_identical_reports(seq.report, pip.report);
    }
  }
}

// ----------------------------------------------------------- ProofPathCache

TEST(ProofPathCache, RemembersInsertedPaths) {
  sv::ProofPathCache cache(8);
  spider::util::Digest20 label{};
  label[0] = 0xab;
  EXPECT_FALSE(cache.has_path(7, label));
  cache.insert_path(7, label);
  EXPECT_TRUE(cache.has_path(7, label));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ProofPathCache, CrossSubtreeCollisionsNeverFalselyHit) {
  // Within one root a position has exactly one valid label (positions are
  // injective across the trie; equivocating roots get separate caches).
  // A lookup with a different label at a cached position must MISS, and a
  // conflicting re-insert must not displace the verified original.
  sv::ProofPathCache cache(8);
  spider::util::Digest20 a{}, b{};
  a[0] = 1;
  b[0] = 2;
  cache.insert_path(3, a);
  EXPECT_FALSE(cache.has_path(3, b));  // differing label: no false hit
  cache.insert_path(3, b);             // conflicting insert is ignored
  EXPECT_TRUE(cache.has_path(3, a));
  EXPECT_FALSE(cache.has_path(3, b));
  // Same label at different positions: distinct entries, no aliasing.
  cache.insert_path(4, a);
  EXPECT_TRUE(cache.has_path(4, a));
  EXPECT_FALSE(cache.has_path(5, a));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProofPathCache, FifoEvictionBoundsTheSize) {
  sv::ProofPathCache cache(4);
  std::vector<spider::util::Digest20> labels;
  for (std::uint8_t i = 0; i < 6; ++i) {
    spider::util::Digest20 label{};
    label[0] = i;
    labels.push_back(label);
    cache.insert_path(i, label);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The two oldest are gone; the four newest remain.
  EXPECT_FALSE(cache.has_path(0, labels[0]));
  EXPECT_FALSE(cache.has_path(1, labels[1]));
  for (std::uint8_t i = 2; i < 6; ++i) EXPECT_TRUE(cache.has_path(i, labels[i]));
}

TEST(ProofPathCache, DuplicateInsertIsIdempotent) {
  sv::ProofPathCache cache(4);
  spider::util::Digest20 label{};
  cache.insert_path(1, label);
  cache.insert_path(1, label);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(CachedProofVerifier, TinyCacheStillVerifiesCorrectly) {
  // A verifier whose cache thrashes (capacity 2) must reach exactly the
  // verdicts of the uncached one — eviction can cost hits, never
  // correctness.
  EngineWorld world;
  const sv::Prover prover(world.deploy.recorder(5), world.commit_time);
  sv::CachedProofVerifier tiny(/*use_cache=*/true, /*cache_capacity=*/2);
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    const auto view = view_of(world, neighbor);
    ASSERT_TRUE(view.has_value());
    const sv::Prover::Round round = prover.round(neighbor, 0, 1, {});
    const auto plain = sv::check_round(*view, round.producer, round.consumer);
    const auto thrashed =
        sv::check_round(*view, round.producer, round.consumer, {}, tiny.verify_fn());
    expect_same_detection(plain.producer, thrashed.producer, "producer");
    expect_same_detection(plain.consumer, thrashed.consumer, "consumer");
  }
  sv::SessionStats stats;
  tiny.drain_into(stats);
  EXPECT_GT(stats.proofs_checked, 0u);
  EXPECT_EQ(stats.proofs_accepted, stats.proofs_checked);
  EXPECT_GT(stats.cache_evictions, 0u);
}

// --------------------------------------------------- rsa_verify_batch

namespace {

scr::RsaPrivateKey batch_key() {
  // SHA-512 PKCS#1 v1.5 needs >= 752 modulus bits; 1024 matches the
  // deployment signer.
  su::SplitMix64 rng(0x5eedbeef);
  static const scr::RsaPrivateKey key = scr::rsa_generate(1024, rng);
  return key;
}

su::Bytes msg(const char* text) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(text);
  return su::Bytes(p, p + std::strlen(text));
}

}  // namespace

TEST(RsaVerifyBatch, AgreesWithScalarVerify) {
  auto key = batch_key();
  auto pub = key.public_key();
  std::vector<su::Bytes> messages = {msg("route a"), msg("route b"), msg("route c"),
                                     msg("route d")};
  std::vector<su::Bytes> signatures;
  for (const auto& m : messages) {
    signatures.push_back(scr::rsa_sign(key, su::ByteSpan{m.data(), m.size()}));
  }
  std::vector<scr::RsaVerifyItem> items;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    items.push_back({su::ByteSpan{messages[i].data(), messages[i].size()},
                     su::ByteSpan{signatures[i].data(), signatures[i].size()}});
  }
  auto batch = scr::rsa_verify_batch(pub, items);
  ASSERT_EQ(batch.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    bool scalar = scr::rsa_verify(pub, items[i].message, items[i].signature);
    EXPECT_TRUE(scalar) << i;
    EXPECT_EQ(batch[i], scalar) << i;
  }
}

TEST(RsaVerifyBatch, OneBadSignatureIsIsolated) {
  auto key = batch_key();
  auto pub = key.public_key();
  std::vector<su::Bytes> messages = {msg("m0"), msg("m1"), msg("m2"), msg("m3"), msg("m4")};
  std::vector<su::Bytes> signatures;
  for (const auto& m : messages) {
    signatures.push_back(scr::rsa_sign(key, su::ByteSpan{m.data(), m.size()}));
  }
  signatures[2][4] ^= 0x40;  // corrupt exactly one signature
  std::vector<scr::RsaVerifyItem> items;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    items.push_back({su::ByteSpan{messages[i].data(), messages[i].size()},
                     su::ByteSpan{signatures[i].data(), signatures[i].size()}});
  }
  auto batch = scr::rsa_verify_batch(pub, items);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i], i != 2) << i;
}

TEST(RsaVerifyBatch, EmptyBatchIsEmpty) {
  auto key = batch_key();
  EXPECT_TRUE(scr::rsa_verify_batch(key.public_key(), {}).empty());
}

// ------------------------------------------------------------ MttProofMemo

namespace {

std::vector<std::pair<sb::Prefix, std::vector<bool>>> memo_entries(std::size_t n,
                                                                   std::uint32_t k) {
  su::SplitMix64 rng(321);
  std::vector<std::pair<sb::Prefix, std::vector<bool>>> entries;
  std::set<sb::Prefix> seen;
  while (entries.size() < n) {
    sb::Prefix p(static_cast<std::uint32_t>(rng.next()),
                 static_cast<std::uint8_t>(8 + rng.next() % 17));
    if (!seen.insert(p).second) continue;
    std::vector<bool> bits(k);
    for (std::size_t i = 0; i < k; ++i) bits[i] = (rng.next() & 1) != 0;
    entries.emplace_back(p, bits);
  }
  return entries;
}

}  // namespace

TEST(MttProofMemo, ProofsAreBitIdenticalWithAndWithoutTheMemo) {
  constexpr std::uint32_t k = 10;
  auto entries = memo_entries(64, k);
  auto tree = sc::Mtt::build(entries, k);
  scr::CommitmentPrf prf(scr::seed_from_string("memo-differential"));
  tree.compute_labels(prf);

  sc::MttProofMemo memo;
  for (const auto& [prefix, bits] : entries) {
    for (std::vector<sc::ClassId> classes : {std::vector<sc::ClassId>{0},
                                             std::vector<sc::ClassId>{1, 3, 7},
                                             std::vector<sc::ClassId>{}}) {
      auto plain = tree.prove(prf, prefix, classes);
      auto memoized = tree.prove(prf, prefix, classes, &memo);
      EXPECT_EQ(plain.encode(), memoized.encode()) << prefix.str();
    }
  }
  // Three calls per prefix: the first misses, the rest hit.
  auto stats = memo.stats();
  EXPECT_EQ(stats.misses, entries.size());
  EXPECT_EQ(stats.hits, 2 * entries.size());
}

TEST(MttProofMemo, NullMemoIsTheDefaultPath) {
  constexpr std::uint32_t k = 4;
  auto entries = memo_entries(8, k);
  auto tree = sc::Mtt::build(entries, k);
  scr::CommitmentPrf prf(scr::seed_from_string("memo-null"));
  tree.compute_labels(prf);
  auto a = tree.prove(prf, entries[0].first, {0, 2});
  auto b = tree.prove(prf, entries[0].first, {0, 2}, nullptr);
  EXPECT_EQ(a.encode(), b.encode());
}
