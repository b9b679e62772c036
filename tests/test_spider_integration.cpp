// End-to-end SPIDeR over the Figure-5 deployment: mirroring, commitments,
// checkpoint+replay reconstruction, producer/consumer verification, the
// three §7.4 fault injections, extended verification, and the NetReview
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "netreview/auditor.hpp"
#include "spider/checker.hpp"
#include "spider/deployment.hpp"
#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "verify/session.hpp"

namespace sp = spider::proto;
namespace sv = spider::verify;
namespace sc = spider::core;
namespace sb = spider::bgp;
namespace st = spider::trace;
namespace sn = spider::netsim;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

st::RouteViewsTrace small_trace() {
  st::TraceConfig config;
  config.num_prefixes = 200;
  config.num_updates = 120;
  config.duration = 30 * kSecond;
  config.seed = 77;
  return st::generate(config);
}

sp::DeploymentConfig small_config() {
  sp::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};  // commitments driven manually by the tests
  return config;
}

/// A deployment that has completed setup + replay of the small trace.
struct World {
  st::RouteViewsTrace trace = small_trace();
  sp::Fig5Deployment deploy;

  explicit World(sp::DeploymentConfig config = small_config(),
                 std::function<void(sp::Fig5Deployment&)> before_traffic = {})
      : deploy(std::move(config)) {
    if (before_traffic) before_traffic(deploy);
    sn::Time start = deploy.run_setup(trace, 30 * kSecond);
    deploy.run_replay(trace, start, 5 * kSecond);
  }

  /// Commits at AS 5 and returns (record, reconstruction-ready generator).
  const sp::CommitmentRecord& commit_as5() {
    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();  // deliver the commitment + acks
    return record;
  }

  sp::SpiderCommit commit_seen_by(sb::AsNumber neighbor, sn::Time t) {
    return deploy.recorder(neighbor).received_commitments().at(5).at(t);
  }

  /// The producer-side window history: stable single values in these tests.
  std::map<sb::Prefix, std::vector<sb::Route>> window_of(sb::AsNumber producer) {
    std::map<sb::Prefix, std::vector<sb::Route>> out;
    for (const auto& [prefix, route] : deploy.recorder(producer).my_exports_to(5)) {
      out[prefix] = {route};
    }
    return out;
  }
};

}  // namespace

TEST(SpiderIntegration, SetupPropagatesRoutesEverywhere) {
  World world;
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    EXPECT_GT(world.deploy.speaker(asn).loc_rib().size(), world.trace.rib_snapshot.size() * 9 / 10)
        << "AS" << asn << " is missing routes";
  }
}

TEST(SpiderIntegration, NoAlarmsInFaultFreeRun) {
  World world;
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    EXPECT_TRUE(world.deploy.recorder(asn).alarms().empty())
        << "AS" << asn << ": " << world.deploy.recorder(asn).alarms().front();
  }
}

TEST(SpiderIntegration, RecorderMirrorsMatchBgpState) {
  World world;
  // AS5's mirrored inputs from AS2 must equal what AS2's recorder says it
  // exported to AS5, and agree with AS5's own BGP Adj-RIB-In.
  auto as5_inputs = world.deploy.recorder(5).my_imports_from(2);
  auto as2_exports = world.deploy.recorder(2).my_exports_to(5);
  EXPECT_EQ(as5_inputs.size(), as2_exports.size());
  for (const auto& [prefix, route] : as5_inputs) {
    auto it = as2_exports.find(prefix);
    ASSERT_NE(it, as2_exports.end()) << prefix.str();
    EXPECT_EQ(it->second.as_path, route.as_path);
    const sb::Route* raw = world.deploy.speaker(5).adj_rib_in().find(2, prefix);
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(raw->as_path, route.as_path);
  }
  EXPECT_GT(as5_inputs.size(), 0u);
}

TEST(SpiderIntegration, SignaturesAreBatched) {
  World world;
  const auto& recorder = world.deploy.recorder(2);
  // Far fewer signatures than mirrored updates (Nagle batching, §6.2).
  EXPECT_GT(recorder.updates_mirrored(), 0u);
  EXPECT_LT(recorder.signatures_performed(), recorder.updates_mirrored());
}

TEST(SpiderIntegration, CommitmentReachesAllNeighbors) {
  World world;
  const auto& record = world.commit_as5();
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    auto commit = world.commit_seen_by(neighbor, record.timestamp);
    EXPECT_EQ(commit.root, record.root);
    EXPECT_EQ(commit.num_classes, 10u);
  }
}

TEST(SpiderIntegration, ReplayReconstructsIdenticalRoot) {
  // The §6.5 property: checkpoint + log replay + stored seed reproduce a
  // bit-identical MTT root, so MTTs need not be stored.
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);
  EXPECT_EQ(recon.tree.root_label(), record.root);
  // And the replayed mirror equals the live mirror (no traffic since T).
  EXPECT_TRUE(recon.state == world.deploy.recorder(5).state());
}

namespace {

/// AS 5's log as the proofgen node rebuilds it: streamed as encoded
/// entries, checkpoints and commitments, then re-chained and verified.
sp::MessageLog transferred_log_of_as5(World& world) {
  sp::LogTransfer transfer;
  sp::stream_log(world.deploy.recorder(5).log(), [&](const sp::LogSegmentFrame& segment) {
    transfer.add(sp::LogSegmentFrame::decode(segment.encode()));
  });
  return transfer.rebuild();
}

/// Proving from the rebuilt log and AS 5's parameters alone agrees with
/// proving from its recorder: same root verdict, same loose-sync window
/// candidates, byte-identical proofs for every neighbor.
void expect_log_only_proofs_match(World& world, sn::Time commit_time) {
  const sp::Recorder& as5 = world.deploy.recorder(5);
  const sp::MessageLog log = transferred_log_of_as5(world);
  const sp::ProofGenerator from_log(log,
                                    {as5.config(), as5.promises(), as5.faults().ignore_inputs});
  const sp::ProofGenerator from_recorder(as5);
  const auto recon = from_log.reconstruct(commit_time);
  const auto expected = from_recorder.reconstruct(commit_time);
  EXPECT_TRUE(recon.root_matches);
  EXPECT_EQ(recon.root_matches, expected.root_matches);
  EXPECT_EQ(recon.window_candidates, expected.window_candidates);
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    EXPECT_EQ(from_log.proofs_for_producer(recon, neighbor).encode(),
              from_recorder.proofs_for_producer(expected, neighbor).encode())
        << "producer AS" << neighbor;
    EXPECT_EQ(from_log.proofs_for_consumer(recon, neighbor).encode(),
              from_recorder.proofs_for_consumer(expected, neighbor).encode())
        << "consumer AS" << neighbor;
  }
}

}  // namespace

TEST(LogOnlyProving, HonestRunMatchesRecorderProving) {
  World world;
  expect_log_only_proofs_match(world, world.commit_as5().timestamp);
}

TEST(LogOnlyProving, LooseSyncWindowCandidatesMatchRecorderProving) {
  World world;
  // AS 2's trace peer re-announces a prefix with a longer path just before
  // AS 5 commits, so the commitment's [T-δ, T] window holds two values.
  sb::Route longer = world.trace.rib_snapshot.front();
  longer.as_path.push_back(64999);
  sb::Update update;
  update.announced.push_back(longer);
  world.deploy.speaker(2).inject(1000, update);
  world.deploy.sim().run_until(world.deploy.sim().now() + kSecond);
  const auto& record = world.commit_as5();
  const auto window = sp::ProofGenerator(world.deploy.recorder(5))
                          .reconstruct(record.timestamp)
                          .window_candidates;
  auto it = window.find({2u, longer.prefix});
  ASSERT_NE(it, window.end());
  EXPECT_GE(it->second.size(), 2u);
  expect_log_only_proofs_match(world, record.timestamp);
}

TEST(LogOnlyProving, IgnoredInputsMatchRecorderProving) {
  World world(small_config(), [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  const auto& record = world.commit_as5();
  expect_log_only_proofs_match(world, record.timestamp);
  // The parameter matters: without it the regenerated root disagrees.
  const sp::MessageLog log = transferred_log_of_as5(world);
  const sp::Recorder& as5 = world.deploy.recorder(5);
  EXPECT_FALSE(sp::ProofGenerator(log, {as5.config(), as5.promises(), {}})
                   .reconstruct(record.timestamp)
                   .root_matches);
}

namespace {

/// Hands `batch`, signed by AS 2, to AS 5's recorder, then lets the
/// simulator deliver the ACK.
void deliver_from_as2(World& world, const sp::SpiderBatch& batch) {
  const auto wire = sp::sign_batch(2, world.deploy.recorder(2).signer(), batch).encode();
  world.deploy.recorder(5).handle_frame(2, spider::util::ByteSpan(wire.data(), wire.size()));
  world.deploy.sim().run();
}

/// A valid withdraw from AS 2 for a prefix it never announced: a no-op for
/// the mirror, but AS 5 accepts it and so logs the whole batch around it.
sp::SpiderBatch::Part harmless_withdraw(World& world) {
  sp::SpiderWithdraw withdraw;
  withdraw.timestamp = world.deploy.sim().now();
  withdraw.from_as = 2;
  withdraw.to_as = 5;
  withdraw.prefix = sb::Prefix::parse("203.0.113.0/24");
  return {sp::SpiderMsgType::kWithdraw, withdraw.encode()};
}

}  // namespace

TEST(SpiderIntegration, UndecodablePartFromByzantineNeighborDoesNotBreakReplay) {
  // A Byzantine AS 2 signs a batch holding one garbage announce part and
  // one valid withdraw.  The live recorder alarms on the garbage part but
  // accepts the withdraw, so it logs the whole batch; replay must skip
  // the garbage part the same way, and AS 5 must still prove its honest
  // commitment.
  World world;
  sp::Recorder& as5 = world.deploy.recorder(5);
  const std::size_t alarms_before = as5.alarms().size();
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, {0x01}});
  batch.parts.push_back(harmless_withdraw(world));
  deliver_from_as2(world, batch);
  ASSERT_EQ(as5.alarms().size(), alarms_before + 1);
  EXPECT_EQ(as5.alarms().back(), "undecodable part from AS2");

  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(as5);
  auto recon = generator.reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);
  auto report = sv::run_session(world.deploy, 5, record.timestamp, sv::SessionConfig{}).report;
  EXPECT_TRUE(report.clean());
  for (const auto& finding : report.findings()) ADD_FAILURE() << finding;
}

TEST(SpiderIntegration, ReplaySkipsEveryPartTheLiveRecorderRejected) {
  // The other parts the live recorder rejects inside a logged batch: an
  // announce naming another sender, and a §6.6 re-announcement sent in the
  // live stream.  Replay must drop both, or the reconstructed mirror (and
  // root) differs from the one AS 5 committed to.
  World world;
  sp::Recorder& as5 = world.deploy.recorder(5);
  const std::size_t alarms_before = as5.alarms().size();
  sp::SpiderAnnounce announce;
  announce.timestamp = world.deploy.sim().now();
  announce.from_as = 2;
  announce.to_as = 5;
  announce.route.prefix = sb::Prefix::parse("198.51.100.0/24");
  announce.route.as_path = {2};
  sp::SpiderAnnounce wrong_sender = announce;
  wrong_sender.from_as = 3;
  sp::SpiderAnnounce re_announce = announce;
  re_announce.re_announce = true;
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, wrong_sender.encode()});
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, re_announce.encode()});
  batch.parts.push_back(harmless_withdraw(world));
  deliver_from_as2(world, batch);
  EXPECT_EQ(as5.alarms().size(), alarms_before + 2);

  const auto& record = world.commit_as5();
  auto recon = sp::ProofGenerator(as5).reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);
  EXPECT_TRUE(recon.state == as5.state());
}

TEST(SpiderIntegration, ProducerProofsSatisfyHonestNeighbors) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    auto proofs = generator.proofs_for_producer(recon, producer);
    auto commit = world.commit_seen_by(producer, record.timestamp);
    auto detection = sp::Checker::check_producer_proofs(
        commit, 5, world.window_of(producer), proofs,
        world.deploy.recorder(producer).classifier());
    EXPECT_FALSE(detection.has_value())
        << "AS" << producer << ": " << detection->detail;
    // Items exist exactly for neighbors that export routes to AS 5 (split
    // horizon means AS 5's downstream neighbors often export nothing back).
    EXPECT_EQ(proofs.items.empty(), world.window_of(producer).empty());
  }
}

TEST(SpiderIntegration, ConsumerProofsSatisfyHonestNeighbors) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  for (sb::AsNumber consumer : world.deploy.neighbors_of(5)) {
    auto proofs = generator.proofs_for_consumer(recon, consumer);
    auto commit = world.commit_seen_by(consumer, record.timestamp);
    const auto& rec = world.deploy.recorder(consumer);
    auto detection = sp::Checker::check_consumer_proofs(
        commit, 5, sc::Promise::total_order(10), rec.my_imports_from(5), proofs, consumer,
        rec.classifier());
    EXPECT_FALSE(detection.has_value())
        << "AS" << consumer << ": " << detection->detail;
    EXPECT_EQ(proofs.items.empty(), rec.my_imports_from(5).empty());
  }
}

TEST(SpiderIntegration, DuplicatePrefixProofsAreJudgedByTheFirstItem) {
  // The checkers look each prefix up once; a proof set that carries one
  // prefix twice is judged by its first item, whichever copy is bad.
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  // Producer role: a misclassified copy of AS 2's first item.
  const auto producer_proofs = generator.proofs_for_producer(recon, 2);
  ASSERT_FALSE(producer_proofs.items.empty());
  auto misclassified = producer_proofs.items.front();
  misclassified.cls = (misclassified.cls + 1) % 10;
  const auto pcommit = world.commit_seen_by(2, record.timestamp);
  const auto& classifier2 = world.deploy.recorder(2).classifier();
  auto bad_first = producer_proofs;
  bad_first.items.insert(bad_first.items.begin(), misclassified);
  auto detection =
      sp::Checker::check_producer_proofs(pcommit, 5, world.window_of(2), bad_first, classifier2);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kMalformedMessage);
  EXPECT_NE(detection->detail.find(misclassified.prefix.str()), std::string::npos);
  auto bad_second = producer_proofs;
  bad_second.items.push_back(misclassified);
  EXPECT_FALSE(
      sp::Checker::check_producer_proofs(pcommit, 5, world.window_of(2), bad_second, classifier2)
          .has_value());

  // Consumer role: a copy of AS 6's first item that cites a route AS 6
  // never received.
  const auto consumer_proofs = generator.proofs_for_consumer(recon, 6);
  ASSERT_FALSE(consumer_proofs.items.empty());
  auto miscited = consumer_proofs.items.front();
  miscited.offered_route.as_path.push_back(64512);
  const auto ccommit = world.commit_seen_by(6, record.timestamp);
  const auto& rec6 = world.deploy.recorder(6);
  auto cbad_first = consumer_proofs;
  cbad_first.items.insert(cbad_first.items.begin(), miscited);
  detection = sp::Checker::check_consumer_proofs(ccommit, 5, sc::Promise::total_order(10),
                                                 rec6.my_imports_from(5), cbad_first, 6,
                                                 rec6.classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kMalformedMessage);
  EXPECT_NE(detection->detail.find(miscited.prefix.str()), std::string::npos);
  auto cbad_second = consumer_proofs;
  cbad_second.items.push_back(miscited);
  EXPECT_FALSE(sp::Checker::check_consumer_proofs(ccommit, 5, sc::Promise::total_order(10),
                                                  rec6.my_imports_from(5), cbad_second, 6,
                                                  rec6.classifier())
                   .has_value());
}

// ------------------------------------------------- §7.4 fault injections

TEST(SpiderIntegration, Fault1_OveraggressiveFilterDetectedByProducer) {
  // AS5 filters everything AS2 sends (and its recorder lies consistently).
  World world(small_config(), [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);

  auto proofs = generator.proofs_for_producer(recon, 2);
  auto commit = world.commit_seen_by(2, record.timestamp);
  auto detection = sp::Checker::check_producer_proofs(commit, 5, world.window_of(2), proofs,
                                                      world.deploy.recorder(2).classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kOmittedInput);
  EXPECT_EQ(detection->accused, 5u);

  // The consumers, meanwhile, see nothing wrong: the commitment matches
  // the (worse) routes they actually received.
  for (sb::AsNumber consumer : {6u, 7u, 8u}) {
    auto cproofs = generator.proofs_for_consumer(recon, consumer);
    auto ccommit = world.commit_seen_by(consumer, record.timestamp);
    const auto& rec = world.deploy.recorder(consumer);
    auto cdetection = sp::Checker::check_consumer_proofs(ccommit, 5,
                                                         sc::Promise::total_order(10),
                                                         rec.my_imports_from(5), cproofs,
                                                         consumer, rec.classifier());
    EXPECT_FALSE(cdetection.has_value()) << "AS" << consumer << ": " << cdetection->detail;
  }
}

TEST(SpiderIntegration, Fault2_WronglyExportedRouteDetectedByConsumer) {
  // The promise to AS6 says: routes with underlying path length >= 3
  // (classes 2..8) must never be exported — the null route (class 9) is
  // ranked above them.  AS5 exports them anyway (its BGP config ignores
  // the agreement), and AS6 catches it because the null class bit is
  // always 1.
  sc::Promise never_long(10);
  never_long.add_preference(0, 1);
  for (sc::ClassId cls = 2; cls < 9; ++cls) never_long.add_preference(9, cls);
  never_long.add_preference(1, 9);
  World world(small_config(), [&](sp::Fig5Deployment& deploy) {
    deploy.recorder(5).set_promise(6, never_long);
  });

  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  auto proofs = generator.proofs_for_consumer(recon, 6);
  auto commit = world.commit_seen_by(6, record.timestamp);
  const auto& rec = world.deploy.recorder(6);
  auto detection = sp::Checker::check_consumer_proofs(commit, 5, never_long,
                                                      rec.my_imports_from(5), proofs, 6,
                                                      rec.classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kBrokenPromise);
  EXPECT_EQ(detection->accused, 5u);
}

TEST(SpiderIntegration, Fault3_TamperedBitProofDetected) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  generator.faults().tamper_classes = {0};  // lie about the best class
  auto recon = generator.reconstruct(record.timestamp);

  auto proofs = generator.proofs_for_consumer(recon, 6);
  auto commit = world.commit_seen_by(6, record.timestamp);
  const auto& rec = world.deploy.recorder(6);
  auto detection = sp::Checker::check_consumer_proofs(commit, 5, sc::Promise::total_order(10),
                                                      rec.my_imports_from(5), proofs, 6,
                                                      rec.classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kInvalidBitProof);
}

TEST(SpiderIntegration, CrossCheckCatchesEquivocation) {
  World world;
  const auto& record = world.commit_as5();
  auto honest = world.commit_seen_by(2, record.timestamp);
  auto forged = honest;
  forged.root[0] ^= 1;
  auto detection = sp::Checker::cross_check_commits(5, {honest, forged});
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kInconsistentCommit);
  EXPECT_FALSE(sp::Checker::cross_check_commits(5, {honest, honest}).has_value());
}

// ------------------------------------------- extended verification (§6.6)

TEST(SpiderIntegration, ExtendedVerificationPassesWhenConsistent) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  std::vector<sp::ReAnnounceSet> sets;
  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    sets.push_back(sp::build_re_announce_set(world.deploy.recorder(producer), 5,
                                             record.timestamp));
  }
  auto selected = generator.select_re_announcements(recon, 6, sets);
  auto detection = sp::Checker::check_re_announcements(
      5, world.deploy.recorder(6).my_imports_from(5), selected);
  EXPECT_FALSE(detection.has_value()) << detection->detail;
  EXPECT_FALSE(selected.empty());
  for (const auto& announce : selected) EXPECT_TRUE(announce.re_announce);
}

TEST(SpiderIntegration, ExtendedVerificationCatchesUnpropagatedWithdrawal) {
  World world;
  const auto& record = world.commit_as5();

  // Snapshot what AS6 believes it holds from AS5 *before* the withdrawal.
  auto imports_before = world.deploy.recorder(6).my_imports_from(5);
  ASSERT_FALSE(imports_before.empty());

  // The producers later withdraw a prefix AS6 still relies on; a faulty
  // elector fails to propagate.  RE-ANNOUNCE sets built afterwards no
  // longer cover that route.
  const sb::Prefix victim = imports_before.begin()->first;
  std::vector<sp::ReAnnounceSet> sets;
  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    auto set = sp::build_re_announce_set(world.deploy.recorder(producer), 5, record.timestamp);
    set.announcements.erase(
        std::remove_if(set.announcements.begin(), set.announcements.end(),
                       [&](const sp::SpiderAnnounce& a) { return a.route.prefix == victim; }),
        set.announcements.end());
    sets.push_back(std::move(set));
  }

  std::vector<sp::SpiderAnnounce> selected;
  for (const auto& set : sets) {
    for (const auto& announce : set.announcements) selected.push_back(announce);
  }
  auto detection = sp::Checker::check_re_announcements(5, imports_before, selected);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kBrokenPromise);
}

TEST(SpiderIntegration, IndexedReAnnouncementLookupsMatchTheBruteForceScans) {
  // select_re_announcements and check_re_announcements index by prefix;
  // their output order and verdicts must equal the nested scans they
  // replace, kept here as the reference.
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  // Every producer's set, then a reversed second set from each producer
  // (same from_as) whose copies alternate between a decoy path and
  // re_announce = false, so equal keys interleave across sets.
  std::vector<sp::ReAnnounceSet> sets;
  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    sets.push_back(sp::build_re_announce_set(world.deploy.recorder(producer), 5,
                                             record.timestamp));
  }
  const std::size_t producers = sets.size();
  for (std::size_t i = 0; i < producers; ++i) {
    sp::ReAnnounceSet extra = sets[i];
    std::reverse(extra.announcements.begin(), extra.announcements.end());
    for (std::size_t j = 0; j < extra.announcements.size(); ++j) {
      if (j % 2 == 0) extra.announcements[j].route.as_path.push_back(64512);
      if (j % 3 == 0) extra.announcements[j].re_announce = false;
    }
    sets.push_back(std::move(extra));
  }

  auto brute_select = [&](sb::AsNumber consumer) {
    std::vector<sp::SpiderAnnounce> selected;
    auto exports_it = recon.state.exports().find(consumer);
    if (exports_it == recon.state.exports().end()) return selected;
    for (const auto& [prefix, export_record] : exports_it->second) {
      const sb::Route underlying = sp::underlying_route(export_record.route, 5);
      if (underlying.as_path.empty()) continue;
      for (const sp::ReAnnounceSet& set : sets) {
        if (set.from_as != underlying.as_path.front()) continue;
        for (const sp::SpiderAnnounce& announce : set.announcements) {
          if (announce.route.prefix == prefix && announce.route.as_path == underlying.as_path) {
            selected.push_back(announce);
          }
        }
      }
    }
    return selected;
  };
  // The first import no announcement covers, or nullopt.
  auto brute_uncovered = [](const std::map<sb::Prefix, sb::Route>& imports,
                            const std::vector<sp::SpiderAnnounce>& announcements)
      -> std::optional<sb::Prefix> {
    for (const auto& [prefix, route] : imports) {
      const sb::Route underlying = sp::underlying_route(route, 5);
      if (underlying.as_path.empty()) continue;
      bool covered = false;
      for (const sp::SpiderAnnounce& announce : announcements) {
        covered = covered || (announce.re_announce && announce.route.prefix == prefix &&
                              announce.route.as_path == underlying.as_path);
      }
      if (!covered) return prefix;
    }
    return std::nullopt;
  };

  std::size_t compared = 0;
  for (sb::AsNumber consumer : world.deploy.neighbors_of(5)) {
    auto selected = generator.select_re_announcements(recon, consumer, sets);
    const auto expected = brute_select(consumer);
    ASSERT_EQ(selected.size(), expected.size()) << "AS" << consumer;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      EXPECT_EQ(selected[i].encode(), expected[i].encode()) << "AS" << consumer << " #" << i;
    }
    compared += selected.size();

    // Verdicts over the full selection, over every other announcement,
    // and over the selection with its re_announce flags cleared.
    const auto imports = world.deploy.recorder(consumer).my_imports_from(5);
    std::vector<sp::SpiderAnnounce> thinned, unflagged;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      if (i % 2 == 0) thinned.push_back(selected[i]);
      unflagged.push_back(selected[i]);
      unflagged.back().re_announce = false;
    }
    for (const auto* announcements : {&selected, &thinned, &unflagged}) {
      const auto detection = sp::Checker::check_re_announcements(5, imports, *announcements);
      const auto uncovered = brute_uncovered(imports, *announcements);
      ASSERT_EQ(detection.has_value(), uncovered.has_value()) << "AS" << consumer;
      if (uncovered) {
        EXPECT_EQ(detection->kind, sc::FaultKind::kBrokenPromise);
        EXPECT_NE(detection->detail.find(uncovered->str()), std::string::npos);
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

// ------------------------------------------------------------- NetReview

TEST(NetReview, CleanRunAuditsClean) {
  World world;
  auto report = spider::netreview::audit_full_disclosure(world.deploy.recorder(5).state(), 5);
  EXPECT_TRUE(report.clean()) << report.findings.front().what;
  EXPECT_GT(report.prefixes_checked, 0u);
  EXPECT_GT(report.decisions_checked, 0u);
}

TEST(NetReview, HiddenRouteFoundByFullDisclosureAudit) {
  // Under NetReview the same "overaggressive filter" fault is visible in
  // the disclosed state itself: the exports are worse than the best input.
  World world(small_config(), [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    // Note: the recorder still mirrors AS2's *actual* inputs — NetReview
    // requires full disclosure, so the audit sees the hidden route.
  });
  auto report = spider::netreview::audit_full_disclosure(world.deploy.recorder(5).state(), 5);
  EXPECT_FALSE(report.clean());
}

TEST(NetReview, ComparisonCountScalesWithState) {
  World world;
  auto count = spider::netreview::audit_comparison_count(world.deploy.recorder(5).state());
  EXPECT_GT(count, world.trace.rib_snapshot.size());
}

// ------------------------------------------- crash restore & fresh seeds

TEST(RecorderRestore, RestoredRecorderDerivesFreshSeeds) {
  World world;
  auto& original = world.deploy.recorder(5);
  const auto record1 = world.commit_as5();

  // "Crash": a fresh recorder process (same ASN, same salt, empty runtime
  // state) adopts the logged history, as §6.5 prescribes.
  sn::Simulator sim;
  std::string secret = "fig5-key-5";
  spider::util::Bytes key(secret.begin(), secret.end());
  spider::crypto::HashSigner signer(key);
  sc::KeyRegistry keys;
  keys.add(5, std::make_unique<spider::crypto::HashVerifier>(key));
  sb::Speaker speaker(sim, 5, sb::Policy{});
  sim.add_node(speaker, "bgp-as5");
  sp::RecorderConfig rc;
  rc.asn = 5;
  rc.num_classes = small_config().num_classes;
  spider::transport::NetsimTransport endpoint(sim);
  sim.add_node(endpoint, "rec-as5");
  sp::Recorder restored(endpoint, rc, signer, keys, speaker);
  restored.restore_from(original.log());
  restored.start(/*schedule_commitments=*/false);

  // Checkpoint + replay must reproduce the pre-crash mirror exactly.
  EXPECT_TRUE(restored.state() == original.state());

  // The restarted clock sits ahead of everything logged; commit again.
  sim.run_until(record1.timestamp + 60 * kSecond);
  const auto record2 = restored.make_commitment();
  EXPECT_GT(record2.timestamp, record1.timestamp);
  // The regression this guards: a counter-derived seed restarts at zero
  // after restore and re-derives the seed record1 already used — the same
  // PRF stream under a commitment an adversary can open proofs against,
  // which breaks hiding.  Timestamp-derived seeds cannot collide with any
  // pre-crash commitment.
  EXPECT_NE(record2.seed, record1.seed);
  for (const auto& [t, logged] : restored.log().commitments()) {
    if (t != record2.timestamp) {
      EXPECT_NE(logged.seed, record2.seed) << "seed reused from commitment at t=" << t;
    }
  }
}

TEST(IncrementalCommits, LiveTreeMatchesFullRebuildAcrossRounds) {
  namespace scr = spider::crypto;
  sp::DeploymentConfig config = small_config();
  config.incremental_commits = true;
  config.seed_epoch_rounds = 1000;  // keep one seed epoch across this test
  World world(config);
  auto& rec = world.deploy.recorder(5);

  auto root_of_fresh_build = [&](const spider::crypto::Seed& seed) {
    auto entries = sp::build_mtt_entries(rec.state(), rec.classifier(), rec.promises(),
                                         rec.faults().ignore_inputs);
    auto fresh = sc::Mtt::build(std::move(entries), config.num_classes);
    fresh.compute_labels(scr::CommitmentPrf(seed));
    return fresh.root_label();
  };

  const auto record1 = world.commit_as5();
  EXPECT_EQ(root_of_fresh_build(record1.seed), record1.root);

  // More churn, then a second commitment inside the same seed epoch — the
  // dirty-path relabel (structure AND labels reused) must still match a
  // from-scratch build over the final mirror.
  world.deploy.run_replay(world.trace, 70 * kSecond, 5 * kSecond);
  const auto record2 = world.commit_as5();
  EXPECT_GT(record2.timestamp, record1.timestamp);
  EXPECT_EQ(record2.seed, record1.seed);  // same epoch, by construction
  EXPECT_EQ(root_of_fresh_build(record2.seed), record2.root);

  // Checkpoint + replay reconstruction is mode-oblivious: the full-rebuild
  // path must reproduce the incrementally produced root (§6.5).
  sp::ProofGenerator generator(rec);
  auto recon = generator.reconstruct(record2.timestamp);
  EXPECT_TRUE(recon.root_matches);
}

TEST(IncrementalCommits, SeedRotationAcrossEpochsStaysCorrect) {
  // Default epochs (one per round): consecutive commitments use different
  // seeds, the live tree's structure survives but every label rehashes, and
  // roots still match full rebuilds.
  sp::DeploymentConfig config = small_config();
  config.incremental_commits = true;
  World world(config);
  auto& rec = world.deploy.recorder(5);

  const auto record1 = world.commit_as5();
  world.deploy.run_replay(world.trace, 70 * kSecond, 5 * kSecond);
  const auto record2 = world.commit_as5();
  EXPECT_NE(record2.seed, record1.seed);  // per-round unlinkability kept

  auto entries = sp::build_mtt_entries(rec.state(), rec.classifier(), rec.promises(),
                                       rec.faults().ignore_inputs);
  auto fresh = sc::Mtt::build(std::move(entries), config.num_classes);
  fresh.compute_labels(spider::crypto::CommitmentPrf(record2.seed));
  EXPECT_EQ(fresh.root_label(), record2.root);
}

// ----------------------------------------------------------- state serde

TEST(MirrorState, SerializeDeserializeRoundtrip) {
  World world;
  const auto& state = world.deploy.recorder(5).state();
  auto restored = sp::MirrorState::deserialize(state.serialize());
  EXPECT_TRUE(restored == state);
}

TEST(MirrorState, ChunkedSerializationRestoresDeploymentStateIdentically) {
  // The streamed checkpoint path on a real mirrored RIB: many chunks, each
  // bounded near the target, restoring byte-identical state.
  World world;
  const auto& state = world.deploy.recorder(5).state();
  const std::size_t target = 512;
  auto chunks = state.serialize_chunked(target);
  EXPECT_GT(chunks.size(), 1u);
  for (const auto& chunk : chunks) {
    // A chunk may overshoot by at most one section header + one record.
    EXPECT_LE(chunk.size(), target + 256);
  }
  auto restored = sp::MirrorState::deserialize_chunked(chunks);
  EXPECT_TRUE(restored == state);
  EXPECT_EQ(restored.serialize(), state.serialize());
}
