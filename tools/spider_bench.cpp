// spider_bench — the runner of the paper's experiments (E1–E13 and the
// A1–A4 ablations).
//
// Each experiment is registered as a named scenario.  Running a scenario
// resets the metrics registry, executes the experiment at the configured
// scale, and emits one BENCH_<scenario>.json containing the scenario
// config, the paper's reference numbers, the measured results, and a full
// metrics snapshot (counters/gauges/histograms/spans) scoped to that
// scenario.  --prefixes sets the table size (default 20,000; the paper's
// table is --prefixes 391028) and --updates the replay trace length
// (default: the paper's trace rate scaled pro rata to the table).
//
//   spider_bench --list
//   spider_bench --all [--out-dir DIR] [--prefixes N] [--updates N]
//   spider_bench --scenario labeling --scenario proof --check-schema
//   spider_bench --all --baseline BENCH_baseline.json
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_schema.hpp"
#include "bench_util.hpp"
#include "bgp/policy.hpp"
#include "chaos/matrix.hpp"
#include "core/commitment.hpp"
#include "core/mtt.hpp"
#include "crypto/bignum_ref.hpp"
#include "crypto/ct.hpp"
#include "crypto/mont.hpp"
#include "crypto/rc4.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha2.hpp"
#include "crypto/sha2_multi.hpp"
#include "netreview/auditor.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "spider/checker.hpp"
#include "spider/proof_generator.hpp"
#include "spider/verification.hpp"
#include "verify/session.hpp"
#include "util/rng.hpp"
#include "util/timers.hpp"

using namespace spider;
namespace json = spider::obs::json;

namespace {

// ---------------------------------------------------------------------------
// JSON helpers

using benchutil::result_row;
using benchutil::validate_bench_json;

json::Object scale_config(const benchutil::BenchScale& scale) {
  json::Object config;
  config["prefixes"] = static_cast<std::uint64_t>(scale.prefixes);
  config["updates"] = static_cast<std::uint64_t>(scale.updates);
  config["scale_factor"] = scale.scale_factor;
  return config;
}

// A paper figure next to its pro-rata value at this run's table size, for
// the `paper` column of a size-dependent row.
std::string pro_rata(const std::string& paper, double at_paper_scale,
                     const benchutil::BenchScale& scale, const char* unit) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " (%.3g %s pro rata)", at_paper_scale * scale.scale_factor,
                unit);
  return paper + buf;
}

// ---------------------------------------------------------------------------
// Shared experiment plumbing

proto::DeploymentConfig deployment_config(bool commit_at_5, bool rsa) {
  proto::DeploymentConfig config;
  config.num_classes = 50;
  config.commit_ases = commit_at_5 ? std::set<bgp::AsNumber>{5} : std::set<bgp::AsNumber>{};
  if (rsa) config.scheme = proto::DeploymentConfig::SignScheme::kRsa;
  return config;
}

std::vector<std::pair<bgp::Prefix, std::vector<bool>>> snapshot_entries(
    const trace::RouteViewsTrace& tr, std::uint32_t k) {
  std::vector<std::pair<bgp::Prefix, std::vector<bool>>> entries;
  entries.reserve(tr.rib_snapshot.size());
  for (const auto& route : tr.rib_snapshot) {
    entries.emplace_back(route.prefix, std::vector<bool>(k, false));
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Scenarios.  Each returns {"config": {...}, "results": [...]}; the runner
// adds the envelope (schema/scenario/experiment/paper_ref/metrics).

json::Object run_communities(const benchutil::BenchScale&) {
  // E1 (Figure 2): synthetic 88-AS community-guide registry whose
  // marginals match the paper's table; recomputed via the policy model.
  std::size_t lp = 0, by_group = 0, by_as = 0, origin = 0;
  std::map<std::uint16_t, std::size_t> tiers;
  util::SplitMix64 rng(2012);
  for (std::uint16_t i = 0; i < 88; ++i) {
    std::uint16_t asn = static_cast<std::uint16_t>(64512 + i);
    if (i < 57) {
      std::uint16_t n = i < 2 ? 12 : (i < 30 ? 3 : static_cast<std::uint16_t>(2 + rng.below(4)));
      ++lp;
      tiers[n]++;
      for (std::uint16_t tier = 0; tier < n; ++tier) (void)bgp::lp_tier_community(asn, tier);
    }
    if (i % 2 == 0 || i >= 80) {
      ++by_group;
      (void)bgp::make_community(asn, 3000);
    }
    if (i < 45) {
      ++by_as;
      (void)bgp::no_export_to_community(7018);
    }
    if (i >= 43) {
      ++origin;
      (void)bgp::make_community(asn, 100);
    }
  }
  std::uint16_t mode = 0, max_tiers = 0;
  std::size_t mode_count = 0;
  for (const auto& [n, count] : tiers) {
    if (count > mode_count) {
      mode = n;
      mode_count = count;
    }
    max_tiers = std::max(max_tiers, n);
  }

  json::Object out;
  json::Object config;
  config["registry_ases"] = 88;
  out["config"] = std::move(config);
  json::Array results;
  results.push_back(result_row("set local preference", static_cast<double>(lp), "ASes", "57"));
  results.push_back(
      result_row("selective export by neighbor group", static_cast<double>(by_group), "ASes", "48"));
  results.push_back(
      result_row("selective export by specific AS", static_cast<double>(by_as), "ASes", "45"));
  results.push_back(
      result_row("information about route origin", static_cast<double>(origin), "ASes", "45"));
  results.push_back(result_row("local-pref tier mode", mode, "tiers", "3"));
  results.push_back(result_row("local-pref tier max", max_tiers, "tiers", "12"));
  const bool matches = lp == 57 && by_group == 48 && by_as == 45 && origin == 45 && mode == 3 &&
                       max_tiers == 12;
  results.push_back(result_row("marginals match Figure 2", matches ? 1 : 0, "bool", "1"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_mtt_size(const benchutil::BenchScale& scale) {
  // E2 (§7.3 "MTT size"): node-count breakdown and memory of one table.
  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = 1;
  config.seed = 20120118;
  auto tr = trace::generate(config);
  auto tree = core::Mtt::build(snapshot_entries(tr, 50), 50);
  tree.compute_labels(crypto::CommitmentPrf(crypto::seed_from_string("mtt-size")));
  auto counts = tree.counts();

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("prefix nodes", static_cast<double>(counts.prefix), "nodes",
                               "389653 @ 391028 prefixes"));
  results.push_back(result_row("inner nodes", static_cast<double>(counts.inner), "nodes", "950372"));
  results.push_back(result_row("dummy nodes", static_cast<double>(counts.dummy), "nodes", "1511092"));
  results.push_back(result_row("bit nodes", static_cast<double>(counts.bit), "nodes", "19482650"));
  results.push_back(
      result_row("total nodes", static_cast<double>(counts.total()), "nodes", "22333767"));
  results.push_back(
      result_row("memory", static_cast<double>(tree.memory_bytes()), "bytes", "137.5 MB"));
  results.push_back(result_row("inner/prefix ratio",
                               static_cast<double>(counts.inner) / static_cast<double>(counts.prefix),
                               "ratio", "2.44"));
  results.push_back(result_row(
      "memory per node",
      static_cast<double>(tree.memory_bytes()) / static_cast<double>(counts.total()), "bytes",
      "6.5 (bit labels are PRF-recomputed here, not stored)"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_labeling(const benchutil::BenchScale& scale) {
  // E3 (§7.3 "Labeling time"): wall time and speed-up for c = 1..4.
  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = 1;
  config.seed = 20120118;
  auto tr = trace::generate(config);
  auto tree = core::Mtt::build(snapshot_entries(tr, 50), 50);
  crypto::CommitmentPrf prf(crypto::seed_from_string("labeling-bench"));

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["hardware_threads"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  out["config"] = std::move(cfg);
  json::Array results;
  double base = 0;
  for (unsigned c = 1; c <= 4; ++c) {
    util::WallTimer timer;
    tree.compute_labels(prf, c);
    double seconds = timer.seconds();
    if (c == 1) base = seconds;
    results.push_back(
        result_row("labeling wall time, c=" + std::to_string(c), seconds, "s",
                   c == 1   ? pro_rata("38.8 @ 391028 prefixes", 38.8, scale, "s")
                   : c == 3 ? "13.4"
                            : "-"));
    if (c > 1) {
      results.push_back(result_row("speedup, c=" + std::to_string(c), base / seconds, "x",
                                   c == 3 ? "2.9" : "-"));
    }
  }
  results.push_back(result_row("label hashes (last pass)",
                               static_cast<double>(tree.last_label_hashes()), "hashes", "-"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_proof(const benchutil::BenchScale& scale) {
  // E4/E5 (§7.3): reconstruction, proof generation/size, proof checking,
  // plus one extended sequential session (challenge round-trips).
  auto tr = benchutil::bench_trace(scale, 60 * netsim::kMicrosPerSecond);
  proto::Fig5Deployment deploy(deployment_config(false, false));
  netsim::Time start = deploy.run_setup(tr, 120 * netsim::kMicrosPerSecond);
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  util::WallTimer commit_timer;
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();
  const double commit_seconds = commit_timer.seconds();

  proto::ProofGenerator generator(deploy.recorder(5));
  util::WallTimer recon_timer;
  auto recon = generator.reconstruct(record.timestamp);
  double recon_seconds = recon_timer.seconds();

  util::WallTimer gen_timer;
  std::size_t total_bytes = 0, neighbors = 0;
  for (bgp::AsNumber neighbor : deploy.neighbors_of(5)) {
    total_bytes += generator.proofs_for_producer(recon, neighbor).total_bytes();
    total_bytes += generator.proofs_for_consumer(recon, neighbor).total_bytes();
    ++neighbors;
  }
  double gen_seconds = gen_timer.seconds();

  auto proofs = generator.proofs_for_consumer(recon, 6);
  auto commit = deploy.recorder(6).received_commitments().at(5).at(record.timestamp);
  util::WallTimer check_timer;
  auto detection = proto::Checker::check_consumer_proofs(
      commit, 5, core::Promise::total_order(50), deploy.recorder(6).my_imports_from(5), proofs, 6,
      deploy.recorder(6).classifier());
  double check_seconds = check_timer.seconds();

  // Single-prefix promise, the paper's "shortest route to Google".
  const bgp::Prefix single = *recon.state.all_prefixes().begin();
  crypto::CommitmentPrf prf(recon.seed);
  util::WallTimer single_timer;
  const core::MttPrefixProof single_proof = recon.tree.prove(prf, single, {0});
  const double single_seconds = single_timer.seconds();
  util::WallTimer single_check_timer;
  const bool single_ok = core::Mtt::verify(recon.tree.root_label(), 50, single_proof);
  const double single_check_seconds = single_check_timer.seconds();

  // The full verification pipeline (extended => RE-ANNOUNCE round-trips).
  auto report = verify::run_session(deploy, 5, record.timestamp, verify::SessionConfig{},
                                    /*extended=*/true)
                    .report;

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("commitment build", commit_seconds, "s", "-"));
  results.push_back(result_row("MTT reconstruction", recon_seconds, "s", "13.4"));
  results.push_back(result_row("proof generation, 5 neighbors", gen_seconds, "s", "70.2"));
  results.push_back(result_row("average proof size per neighbor",
                               static_cast<double>(total_bytes / neighbors), "bytes",
                               pro_rata("449 MB", 449e6, scale, "bytes")));
  results.push_back(result_row("proof checking, one neighbor", check_seconds, "s", "27 (8.6-40)"));
  results.push_back(result_row("single-prefix proof generation", single_seconds, "s",
                               "0.431 (after reconstruction)"));
  results.push_back(result_row("single-prefix proof size",
                               static_cast<double>(single_proof.byte_size()), "bytes", "2.1 KB"));
  results.push_back(result_row("single-prefix proof check", single_check_seconds, "s", "-"));
  results.push_back(result_row("single-prefix proof verifies", single_ok ? 1 : 0, "bool", "1"));
  results.push_back(result_row("root matches commitment", recon.root_matches ? 1 : 0, "bool", "1"));
  results.push_back(
      result_row("consumer check clean", detection ? 0 : 1, "bool", "1 (no violation)"));
  results.push_back(result_row("full verification clean", report.clean() ? 1 : 0, "bool", "1"));
  results.push_back(
      result_row("full verification proof bytes", static_cast<double>(report.proof_bytes), "bytes",
                 "~2.2 GB @ paper scale"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_functionality(const benchutil::BenchScale& scale) {
  // E6 (§7.4): clean control run + three injected faults, each detected
  // by the predicted neighbor.  Every neighbor checks its proofs against
  // the promise AS 5 made it.
  trace::TraceConfig tconfig;
  tconfig.num_prefixes = std::min<std::size_t>(scale.prefixes, 2000);
  tconfig.num_updates = 500;
  tconfig.duration = 60 * netsim::kMicrosPerSecond;
  tconfig.seed = 20120118;
  auto tr = trace::generate(tconfig);

  json::Array results;
  json::Object detections;  // case label -> "AS<n> <role>: <fault kind>" per detection
  // `detector` is the neighbor the paper predicts raises the alarm; 0 = nobody.
  auto run_case = [&](const char* label, bgp::AsNumber detector,
                      const std::function<void(proto::Fig5Deployment&)>& inject,
                      const std::function<void(proto::ProofGenerator&)>& tamper) {
    proto::Fig5Deployment deploy(deployment_config(false, false));
    if (inject) inject(deploy);
    auto start = deploy.run_setup(tr, 60 * netsim::kMicrosPerSecond);
    deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();
    proto::ProofGenerator generator(deploy.recorder(5));
    if (tamper) tamper(generator);
    auto recon = generator.reconstruct(record.timestamp);

    json::Array found;
    bool any = false, by_detector = false;
    auto note = [&](bgp::AsNumber neighbor, const char* role,
                    const std::optional<core::Detection>& detection) {
      if (!detection) return;
      any = true;
      by_detector |= neighbor == detector;
      found.push_back("AS" + std::to_string(neighbor) + " " + role + ": " +
                      core::fault_kind_name(detection->kind));
    };
    for (bgp::AsNumber neighbor : deploy.neighbors_of(5)) {
      const auto view = verify::checker_view(deploy.recorder(neighbor), 5, record.timestamp,
                                             &deploy.recorder(5).promises().at(neighbor));
      const auto round = verify::check_round(view.value(),
                                             generator.proofs_for_producer(recon, neighbor),
                                             generator.proofs_for_consumer(recon, neighbor));
      note(neighbor, "producer", round.producer);
      note(neighbor, "consumer", round.consumer);
    }
    const bool as_predicted = detector == 0 ? !any : by_detector;
    results.push_back(result_row(label, as_predicted ? 1 : 0, "bool", "1"));
    detections[label] = std::move(found);
    return as_predicted;
  };

  bool ok = true;
  ok &= run_case("control run stays clean", 0, nullptr, nullptr);
  ok &= run_case("overaggressive filter detected", 2,
                 [](proto::Fig5Deployment& deploy) {
                   deploy.speaker(5).inject_import_filter_fault(2);
                   deploy.recorder(5).faults().ignore_inputs = {2};
                 },
                 nullptr);
  ok &= run_case("wrongly exporting detected", 6,
                 [](proto::Fig5Deployment& deploy) {
                   // Promise: routes of 3+ hops are never to be exported to AS 6.
                   core::Promise never_long(50);
                   never_long.add_preference(0, 1);
                   for (core::ClassId cls = 2; cls < 49; ++cls) never_long.add_preference(49, cls);
                   never_long.add_preference(1, 49);
                   deploy.recorder(5).set_promise(6, never_long);
                 },
                 nullptr);
  ok &= run_case("tampered bit proof detected", 6, nullptr,
                 [](proto::ProofGenerator& generator) { generator.faults().tamper_classes = {0}; });
  results.push_back(result_row("all outcomes as paper predicts", ok ? 1 : 0, "bool", "1"));

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["prefixes"] = static_cast<std::uint64_t>(tconfig.num_prefixes);
  cfg["detections"] = std::move(detections);
  out["config"] = std::move(cfg);
  out["results"] = std::move(results);
  return out;
}

json::Object run_computation(const benchutil::BenchScale& scale) {
  // E7 (§7.5): recorder CPU split at AS 5 during the replay period.
  auto tr = benchutil::bench_trace(scale);
  proto::Fig5Deployment deploy(deployment_config(true, true));
  const netsim::Time setup = 30LL * 60 * netsim::kMicrosPerSecond;
  const netsim::Time replay = 15LL * 60 * netsim::kMicrosPerSecond;
  netsim::Time start = deploy.run_setup(tr, setup);

  const auto& recorder = deploy.recorder(5);
  double sign0 = recorder.sign_cpu_seconds();
  double mtt0 = recorder.mtt_cpu_seconds();
  double total0 = recorder.total_cpu_seconds();
  std::uint64_t sigs0 = recorder.signatures_performed() + recorder.verifications_performed();
  std::uint64_t commits0 = recorder.commitments_made();

  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);

  double sign_cpu = recorder.sign_cpu_seconds() - sign0;
  double mtt_cpu = recorder.mtt_cpu_seconds() - mtt0;
  double total_cpu = recorder.total_cpu_seconds() - total0;
  double other_cpu = std::max(0.0, total_cpu - sign_cpu - mtt_cpu);
  std::uint64_t sig_ops =
      recorder.signatures_performed() + recorder.verifications_performed() - sigs0;
  std::uint64_t commits = recorder.commitments_made() - commits0;
  double replay_minutes = static_cast<double>(replay) / (60.0 * netsim::kMicrosPerSecond);

  // NetReview incurs the same costs except MTT generation (§7.5); its
  // full-disclosure audit runs over the same mirrored state.
  const double netreview_cpu = total_cpu - mtt_cpu;
  util::WallTimer audit_timer;
  const netreview::AuditReport audit = netreview::audit_full_disclosure(recorder.state(), 5);
  const double audit_seconds = audit_timer.seconds();

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("replay-period recorder CPU", total_cpu, "s", "634.5"));
  results.push_back(result_row("signatures+verifications CPU", sign_cpu, "s", "9.75"));
  results.push_back(
      result_row("sign/verify operations", static_cast<double>(sig_ops), "ops", "3913"));
  results.push_back(result_row("MTT generation CPU", mtt_cpu, "s", "519"));
  results.push_back(result_row("MTT commitments", static_cast<double>(commits), "count", "13"));
  results.push_back(result_row("other (RIB maintenance)", other_cpu, "s", "105.75"));
  results.push_back(result_row("single-core utilization",
                               100.0 * total_cpu / (replay_minutes * 60.0), "%", "81.3"));
  results.push_back(result_row("NetReview-equivalent CPU", netreview_cpu, "s", "115.5"));
  results.push_back(result_row("SPIDeR/NetReview CPU ratio",
                               netreview_cpu > 0 ? total_cpu / netreview_cpu : 0, "x", "~5"));
  results.push_back(
      result_row("full-disclosure audit time", audit_seconds, "s", "- (NetReview audit pass)"));
  results.push_back(result_row("full-disclosure audit clean", audit.clean() ? 1 : 0, "bool", "1"));
  results.push_back(result_row("audit prefixes checked",
                               static_cast<double>(audit.prefixes_checked), "prefixes", "-"));
  results.push_back(result_row("audit decisions checked",
                               static_cast<double>(audit.decisions_checked), "decisions", "-"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_bandwidth(const benchutil::BenchScale& scale) {
  // E8 (§7.6): BGP vs SPIDeR bytes on AS 5's links, plus verification
  // traffic from real proof sizes.
  auto tr = benchutil::bench_trace(scale);
  proto::Fig5Deployment deploy(deployment_config(true, true));
  const netsim::Time setup = 30LL * 60 * netsim::kMicrosPerSecond;
  const netsim::Time replay = 15LL * 60 * netsim::kMicrosPerSecond;
  netsim::Time start = deploy.run_setup(tr, setup);

  std::uint64_t bgp0 = deploy.bgp_bytes(5);
  std::uint64_t spider0 = deploy.spider_bytes(5);
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  std::uint64_t bgp_bytes = deploy.bgp_bytes(5) - bgp0;
  std::uint64_t spider_bytes = deploy.spider_bytes(5) - spider0;
  double seconds = static_cast<double>(replay) / netsim::kMicrosPerSecond;
  double bgp_kbps = 8.0 * static_cast<double>(bgp_bytes) / seconds / 1000.0;
  double spider_kbps = 8.0 * static_cast<double>(spider_bytes) / seconds / 1000.0;

  const auto& record = deploy.recorder(5).log().commitments().rbegin()->second;
  proto::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  std::uint64_t proof_bytes = 0;
  for (bgp::AsNumber neighbor : deploy.neighbors_of(5)) {
    proof_bytes += generator.proofs_for_producer(recon, neighbor).total_bytes();
    proof_bytes += generator.proofs_for_consumer(recon, neighbor).total_bytes();
  }

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("BGP traffic", bgp_kbps, "kbps", "11.8"));
  results.push_back(result_row("SPIDeR traffic", spider_kbps, "kbps", "32.6"));
  results.push_back(result_row(
      "relative increase", bgp_kbps > 0 ? 100.0 * (spider_kbps - bgp_kbps) / bgp_kbps : 0, "%",
      "176"));
  results.push_back(result_row("proof bytes per full verification",
                               static_cast<double>(proof_bytes), "bytes", "~2.2 GB"));
  results.push_back(result_row("verifying 1%/min of commitments",
                               8.0 * static_cast<double>(proof_bytes) * 0.01 / 60.0 / 1e6, "Mbps",
                               pro_rata("3.0", 3.0, scale, "Mbps")));
  out["results"] = std::move(results);
  return out;
}

json::Object run_storage(const benchutil::BenchScale& scale) {
  // E9 (§7.7): log growth, signature share, snapshot size, seed-only
  // commitment cost, 1-year retention estimate.
  auto tr = benchutil::bench_trace(scale);
  proto::Fig5Deployment deploy(deployment_config(true, true));
  const netsim::Time setup = 30LL * 60 * netsim::kMicrosPerSecond;
  const netsim::Time replay = 15LL * 60 * netsim::kMicrosPerSecond;
  netsim::Time start = deploy.run_setup(tr, setup);

  const auto& log = deploy.recorder(5).log();
  std::uint64_t msg0 = log.message_bytes();
  std::uint64_t sig0 = log.signature_bytes();
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  std::uint64_t msg_bytes = log.message_bytes() - msg0;
  std::uint64_t sig_bytes = log.signature_bytes() - sig0;
  double minutes = static_cast<double>(replay) / (60.0 * netsim::kMicrosPerSecond);
  auto snapshot = deploy.recorder(5).state().serialize();
  std::uint64_t commits = log.commitments().size();

  double year_log = static_cast<double>(msg_bytes) / minutes * 60.0 * 24.0 * 365.0;
  double year_snapshots = static_cast<double>(snapshot.size()) * 365.0;
  double year_commits = 32.0 * (365.0 * 24.0 * 60.0);

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(
      result_row("replay-period log growth", static_cast<double>(msg_bytes), "bytes", "2.95 MB"));
  results.push_back(result_row("log growth rate",
                               static_cast<double>(msg_bytes) / 1000.0 / minutes, "kB/min",
                               "232.3"));
  results.push_back(result_row(
      "signature share",
      msg_bytes ? 100.0 * static_cast<double>(sig_bytes) / static_cast<double>(msg_bytes) : 0, "%",
      "24.4"));
  results.push_back(result_row("routing-state snapshot", static_cast<double>(snapshot.size()),
                               "bytes", pro_rata("94.1 MB", 94.1e6, scale, "bytes")));
  results.push_back(result_row("commitments stored", static_cast<double>(commits), "count", "13"));
  results.push_back(result_row(
      "bytes per commitment",
      commits ? static_cast<double>(log.commitment_bytes()) / static_cast<double>(commits) : 0,
      "bytes", "32"));
  results.push_back(
      result_row("1-year retention estimate", year_log + year_snapshots + year_commits, "bytes",
                 pro_rata("145.7 GB", 145.7e9, scale, "bytes")));
  out["results"] = std::move(results);
  return out;
}

// Keeps a computed value observable, so the timed loop producing it is not
// optimized away (the DoNotOptimize idiom of microbenchmark libraries).
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// Mean wall time of op(i), i = 0..iters-1, in microseconds per call.
template <typename Op>
double us_per_op(int iters, Op&& op) {
  util::WallTimer timer;
  for (int i = 0; i < iters; ++i) op(i);
  return timer.seconds() * 1e6 / iters;
}

util::Bytes pattern_bytes(std::size_t n, std::size_t salt = 0) {
  util::Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>((i + salt) * 31 + 7);
  return data;
}

json::Object run_crypto(const benchutil::BenchScale&) {
  // E10: the primitive costs underneath every paper number — SHA-512 (MTT
  // labels), RSA-1024 (§7.5's signature column), the RC4 CSPRNG (§7.1),
  // PRF-derived commitment randomness, and MTT build/label/prove/verify
  // rates.  Plain timed loops at fixed iteration counts.  Each fast engine
  // is checked against its reference (the seed bignum engine, the scalar
  // SHA-512 path) before its speed is reported; a disagreement aborts.
  json::Array results;
  auto row = [&](const std::string& label, double measured, const char* unit) {
    results.push_back(result_row(label, measured, unit, "-"));
  };

  for (const std::size_t size : {std::size_t{64}, std::size_t{1024}}) {
    const util::Bytes data = pattern_bytes(size);
    row(size == 64 ? "SHA-512 (64 B)" : "SHA-512 (1 KiB)",
        us_per_op(20'000, [&](int) { keep(crypto::Sha512::hash(data)); }), "us/op");
  }
  {
    // The checker's per-proof prefix-node label: 50 bit-node labels of 20
    // bytes hashed as one span.
    std::vector<util::Digest20> labels(50);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const util::Bytes bytes = pattern_bytes(sizeof(util::Digest20), i * 20);
      std::copy(bytes.begin(), bytes.end(), labels[i].begin());
    }
    row("SHA-512 (1000 B, prefix-node input)", us_per_op(20'000, [&](int) {
          keep(core::mtt_prefix_label(labels.data(), labels.size()));
        }),
        "us/op");
  }
  const util::Bytes block = pattern_bytes(65536);
  row("SHA-512 throughput (64 KiB blocks)",
      static_cast<double>(block.size()) / us_per_op(64, [&](int) {
        keep(crypto::Sha512::hash(block));
      }),
      "MB/s");
  const util::Bytes kib = pattern_bytes(1024);
  row("SHA-256 (1 KiB)", us_per_op(5'000, [&](int) { keep(crypto::Sha256::hash(kib)); }), "us/op");
  util::Bytes input(60, 0xab);  // inner-node hash shape: 3 x 20-byte labels
  row("digest20 (MTT label input)", us_per_op(50'000, [&](int i) {
        input[0] = static_cast<std::uint8_t>(i);
        keep(crypto::digest20(input));
      }),
      "us/op");
  {
    // Multi-lane SHA-512 batcher vs one-at-a-time hashing over the PRF
    // message shape (41 bytes: 32-byte seed + domain byte + 8-byte index),
    // and digest20_batch over the MTT bit-leaf shape (21 bytes: bit || x).
    // Batches below a full lane group show what the batcher still pays.
    const std::size_t batch = 4096;
    std::vector<util::Bytes> msgs, leaves;
    for (std::size_t i = 0; i < batch; ++i) {
      msgs.push_back(pattern_bytes(41, i * 41));
      leaves.push_back(pattern_bytes(21, i * 21));
    }
    std::vector<util::ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<util::ByteSpan> leaf_spans(leaves.begin(), leaves.end());
    std::vector<crypto::Sha512::Digest> scalar(batch), lanes(batch);
    std::vector<util::Digest20> leaf_out(batch);
    const double scalar_dps = 1e6 * static_cast<double>(batch) / us_per_op(32, [&](int) {
      for (std::size_t j = 0; j < batch; ++j) scalar[j] = crypto::Sha512::hash(spans[j]);
    });
    const double lane_dps = 1e6 * static_cast<double>(batch) / us_per_op(32, [&](int) {
      crypto::sha512_batch(spans.data(), batch, lanes.data());
    });
    if (lanes != scalar) std::abort();  // lanes must agree with the scalar path
    crypto::digest20_batch(leaf_spans.data(), batch, leaf_out.data());
    for (std::size_t j = 0; j < batch; ++j) {
      if (!crypto::constant_time_equal(leaf_out[j], crypto::digest20(leaf_spans[j]))) std::abort();
    }
    row("SHA-512 digests/s (41 B, 1 lane)", scalar_dps, "ops/s");
    row("SHA-512 digests/s (41 B, " + std::to_string(crypto::sha512_lanes()) + " lanes)", lane_dps,
        "ops/s");
    row("SHA-512 lane speedup", lane_dps / scalar_dps, "x");
    for (const std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      row("sha512_batch digests/s (41 B, batch " + std::to_string(n) + ")",
          1e6 * static_cast<double>(n) / us_per_op(static_cast<int>(16'384 / n), [&](int) {
            crypto::sha512_batch(spans.data(), n, lanes.data());
            keep(lanes);
          }),
          "ops/s");
    }
    for (const std::size_t n : {std::size_t{64}, batch}) {
      row("digest20_batch digests/s (21 B, batch " + std::to_string(n) + ")",
          1e6 * static_cast<double>(n) / us_per_op(static_cast<int>(16'384 / n), [&](int) {
            crypto::digest20_batch(leaf_spans.data(), n, leaf_out.data());
            keep(leaf_out);
          }),
          "ops/s");
    }
  }
  {
    util::SplitMix64 rng(42);
    auto key = crypto::rsa_generate(1024, rng);
    util::Bytes msg(256, 0x5a);
    util::Bytes sig, ref_sig;
    const double sign_ops = 1e6 / us_per_op(200, [&](int) { sig = crypto::rsa_sign(key, msg); });
    results.push_back(result_row("RSA-1024 sign (Montgomery+CRT)", sign_ops, "ops/s",
                                 "~400 (2.5 ms/op, paper-era hardware)"));
    const double ref_ops =
        1e6 / us_per_op(20, [&](int) { ref_sig = crypto::ref::rsa_sign_seed(key, msg); });
    if (ref_sig != sig) std::abort();  // engines must agree before we compare speeds
    row("RSA-1024 sign (seed 32-bit engine)", ref_ops, "ops/s");
    row("RSA sign speedup vs seed engine", sign_ops / ref_ops, "x");
    // spider-taint: declassify(the public half (n, e) is published by design)
    auto pub = key.public_key();
    row("RSA-1024 verify",
        1e6 / us_per_op(2000, [&](int) { keep(crypto::rsa_verify(pub, msg, sig)); }), "ops/s");
  }
  {
    // Bare 1024-bit modular exponentiation: windowed Montgomery vs the seed
    // 32-bit square-and-multiply ladder (full-width exponent).
    util::SplitMix64 rng(20120813);
    crypto::BigInt n = crypto::BigInt::random_bits(1024, rng);
    if ((n % crypto::BigInt{2}).is_zero()) n = n + crypto::BigInt{1};
    const crypto::BigInt base = crypto::BigInt::random_bits(1024, rng) % n;
    const crypto::BigInt e = crypto::BigInt::random_bits(1024, rng);
    const crypto::MontCtx ctx(n);
    crypto::BigInt fast_out, ref_out;
    row("modexp-1024 (Montgomery window)",
        us_per_op(100, [&](int) { fast_out = ctx.exp(base, e); }), "us/op");
    const double ref_us = us_per_op(5, [&](int) { ref_out = crypto::ref::mod_exp32(base, e, n); });
    if (ref_out != fast_out) std::abort();
    row("modexp-1024 (seed 32-bit engine)", ref_us, "us/op");
  }
  {
    // The paper's sequential RC4 draw (§7.1) against the positional PRF this
    // implementation uses: one derive = one SHA-512, traded for random
    // access (DESIGN.md).
    const crypto::Seed seed = crypto::seed_from_string("bench");
    row("RC4 CSPRNG set-up (3,072-byte drop)", us_per_op(2'000, [&](int) {
          crypto::Rc4Csprng csprng(seed.span());
          keep(csprng.next_u64());
        }),
        "us/op");
    crypto::Rc4Csprng csprng(seed.span());
    std::uint8_t buf[4096];
    row("RC4 keystream", static_cast<double>(sizeof(buf)) / us_per_op(512, [&](int) {
          csprng.fill(buf, sizeof(buf));
          keep(buf);
        }),
        "MB/s");
    crypto::CommitmentPrf prf(seed);
    row("commitment PRF derive", us_per_op(100'000, [&](int i) {
          keep(prf.bit_randomness(static_cast<std::uint64_t>(i)));
        }),
        "us/op");
    const util::Digest20 x = prf.bit_randomness(0);
    row("bit-leaf hash", us_per_op(20'000, [&](int) { keep(core::bit_leaf_hash(true, x)); }),
        "us/op");
    // A single-prefix VPref commitment over k bits.
    for (const std::size_t k : {std::size_t{4}, std::size_t{50}}) {
      std::vector<bool> bits(k, false);
      bits[k / 2] = true;
      row("FlatCommitment (k=" + std::to_string(k) + ")", us_per_op(k == 4 ? 5'000 : 1'000, [&](int) {
            keep(core::FlatCommitment(bits, prf).root());
          }),
          "us/op");
    }
  }
  trace::TraceConfig config;
  config.num_updates = 1;
  config.seed = 7;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{10'000}}) {
    config.num_prefixes = n;
    const auto entries = snapshot_entries(trace::generate(config), 50);
    row("MTT build (" + std::to_string(n) + " prefixes)", us_per_op(n == 1000 ? 20 : 3, [&](int) {
          keep(core::Mtt::build(entries, 50).counts().inner);
        }) / 1000,
        "ms/op");
  }
  config.num_prefixes = 2000;
  auto tr = trace::generate(config);
  auto tree = core::Mtt::build(snapshot_entries(tr, 50), 50);
  crypto::CommitmentPrf prf(crypto::seed_from_string("mtt-bench"));
  const auto prefixes = static_cast<double>(tr.rib_snapshot.size());
  util::Digest20 scalar_root{};
  const double scalar_s = us_per_op(1, [&](int) {
    tree.compute_labels(prf, /*threads=*/1, /*multilane=*/false);
    scalar_root = tree.root_label();
  }) / 1e6;
  const double scalar_dps = static_cast<double>(tree.last_label_hashes()) / scalar_s;
  const double lane_s =
      us_per_op(1, [&](int) { tree.compute_labels(prf, /*threads=*/1, /*multilane=*/true); }) / 1e6;
  const double lane_dps = static_cast<double>(tree.last_label_hashes()) / lane_s;
  if (!crypto::constant_time_equal(tree.root_label(), scalar_root)) std::abort();
  row("MTT labeling digests/s (scalar)", scalar_dps, "ops/s");
  row("MTT labeling digests/s (multilane)", lane_dps, "ops/s");
  row("MTT labeling speedup (multilane)", scalar_s / lane_s, "x");
  row("MTT labeling per prefix (scalar)", scalar_s * 1e6 / prefixes, "us/prefix");
  row("MTT labeling per prefix (multilane)", lane_s * 1e6 / prefixes, "us/prefix");
  std::vector<core::ClassId> all_better;
  for (core::ClassId c = 0; c < 49; ++c) all_better.push_back(c);
  const auto& prefix = tr.rib_snapshot.front().prefix;
  core::MttPrefixProof proof;
  row("MTT prove (49 classes)",
      us_per_op(200, [&](int) { proof = tree.prove(prf, prefix, all_better); }), "us/op");
  const auto root = tree.root_label();
  row("MTT verify (49 classes)",
      us_per_op(200, [&](int) { keep(core::Mtt::verify(root, 50, proof)); }), "us/op");

  json::Object out;
  json::Object cfg;
  cfg["note"] = "fixed micro-iteration counts; independent of --prefixes";
  out["config"] = std::move(cfg);
  out["results"] = std::move(results);
  return out;
}

json::Object run_ablation(const benchutil::BenchScale& scale) {
  // A1-A4 (DESIGN.md design-choice index).
  json::Array results;

  // A1: indifference-class count k.  The paper argues 50 classes is a
  // conservative upper bound (§7.2); MTT cost scales with N*k.
  trace::TraceConfig config;
  config.num_prefixes = std::min<std::size_t>(scale.prefixes, 20'000);
  config.num_updates = 1;
  config.seed = 20120118;
  auto tr = trace::generate(config);
  core::MttPrefixProof proof_k50;
  for (std::uint32_t k : {5u, 10u, 25u, 50u, 100u}) {
    auto tree = core::Mtt::build(snapshot_entries(tr, k), k);
    crypto::CommitmentPrf prf(crypto::seed_from_string("ablate-k"));
    util::WallTimer timer;
    tree.compute_labels(prf);
    double label_s = timer.seconds();
    auto proof = tree.prove(prf, tr.rib_snapshot.front().prefix, {0});
    std::string suffix = " (k=" + std::to_string(k) + ")";
    results.push_back(result_row("labeling time" + suffix, label_s, "s", "-"));
    results.push_back(result_row("MTT memory" + suffix, static_cast<double>(tree.memory_bytes()),
                                 "bytes", "-"));
    results.push_back(result_row("single-prefix proof size" + suffix,
                                 static_cast<double>(proof.byte_size()), "bytes",
                                 k == 50 ? "~2.1 kB" : "-"));
    results.push_back(
        result_row("bit nodes" + suffix, static_cast<double>(tree.counts().bit), "nodes", "-"));
    if (k == 50) proof_k50 = std::move(proof);
  }

  // A2: signature batching window (the Nagle knob of §6.2) and A3:
  // commitment interval (§7.3: "a commitment every 15 seconds"), on a
  // table of at most 5,000 prefixes.
  const std::size_t small = std::min<std::size_t>(scale.prefixes, 5'000);
  const benchutil::BenchScale small_scale = benchutil::bench_scale(small, small * 600 / 5'000);
  auto tr_window = benchutil::bench_trace(small_scale, 120 * netsim::kMicrosPerSecond);
  for (netsim::Time window : {netsim::Time{1'000}, netsim::Time{10'000}, netsim::Time{50'000},
                              netsim::Time{200'000}, netsim::Time{1'000'000}}) {
    proto::DeploymentConfig dconfig = deployment_config(false, false);
    dconfig.batch_window = window;
    proto::Fig5Deployment deploy(dconfig);
    auto start = deploy.run_setup(tr_window, 60 * netsim::kMicrosPerSecond);
    deploy.run_replay(tr_window, start, 5 * netsim::kMicrosPerSecond);
    const auto& recorder = deploy.recorder(5);
    const auto sigs = static_cast<double>(recorder.signatures_performed());
    const auto updates = static_cast<double>(recorder.updates_mirrored());
    const std::string suffix = " (window " + std::to_string(window / 1000) + " ms)";
    results.push_back(result_row("signatures" + suffix, sigs, "signatures", "-"));
    results.push_back(result_row("updates mirrored" + suffix, updates, "updates", "-"));
    results.push_back(result_row("signatures per update" + suffix,
                                 updates > 0 ? sigs / updates : 0, "ratio",
                                 window == 50'000 ? "~0.1 (3913 / 38696)" : "-"));
  }
  auto tr_interval = benchutil::bench_trace(small_scale, 240 * netsim::kMicrosPerSecond);
  for (netsim::Time interval :
       {15 * netsim::kMicrosPerSecond, 30 * netsim::kMicrosPerSecond,
        60 * netsim::kMicrosPerSecond, 120 * netsim::kMicrosPerSecond}) {
    proto::DeploymentConfig dconfig = deployment_config(true, false);
    dconfig.commit_interval = interval;
    proto::Fig5Deployment deploy(dconfig);
    auto start = deploy.run_setup(tr_interval, 60 * netsim::kMicrosPerSecond);
    deploy.run_replay(tr_interval, start, 5 * netsim::kMicrosPerSecond);
    const auto& recorder = deploy.recorder(5);
    const double sim_minutes = 300.0 / 60.0;
    const std::string suffix =
        " (interval " + std::to_string(interval / netsim::kMicrosPerSecond) + " s)";
    results.push_back(result_row("commitments" + suffix,
                                 static_cast<double>(recorder.commitments_made()), "count", "-"));
    results.push_back(result_row("MTT CPU" + suffix, recorder.mtt_cpu_seconds(), "s", "-"));
    results.push_back(result_row("MTT CPU per simulated minute" + suffix,
                                 recorder.mtt_cpu_seconds() / sim_minutes, "s/min", "-"));
  }

  // A4: digest truncation.  SHA-512 always computes 64 bytes, so the
  // per-hash cost is the same for either width (E10's digest20 row); the
  // 20-byte truncation saves space only.
  const double paper_nodes = 22'333'767.0;
  results.push_back(result_row("label storage @ paper scale, 20 B digests", paper_nodes * 20,
                               "bytes", "~447 MB"));
  results.push_back(result_row("label storage @ paper scale, 64 B digests", paper_nodes * 64,
                               "bytes", "~1.43 GB (3.2x)"));
  // The k=50 proof again, every digest widened from 20 to 64 bytes.
  const std::size_t digests =
      proof_k50.revealed.size() + proof_k50.bit_labels.size() + 2 * proof_k50.siblings.size();
  results.push_back(result_row("single-prefix proof size, 64 B digests (k=50)",
                               static_cast<double>(proof_k50.byte_size() + digests * (64 - 20)),
                               "bytes", "~6.7 kB"));

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["prefixes"] = static_cast<std::uint64_t>(config.num_prefixes);
  cfg["window_interval_prefixes"] = static_cast<std::uint64_t>(small_scale.prefixes);
  cfg["window_interval_updates"] = static_cast<std::uint64_t>(small_scale.updates);
  out["config"] = std::move(cfg);
  out["results"] = std::move(results);
  return out;
}

json::Object run_chaos(const benchutil::BenchScale& scale) {
  // E11: the spider_chaos detection matrix at bench scale — every cataloged
  // misbehavior on the clean profile plus two seeds of each benign fault
  // profile.  The paper's claim (§5, §7.4) is qualitative: misbehavior is
  // always detected with the right fault class, benign faults never accuse
  // anyone; the matrix measures exactly those two numbers.
  chaos::MatrixOptions options;
  options.benign_seeds = {1, 2};
  options.byzantine_profiles = {"clean"};
  options.num_prefixes = std::min<std::size_t>(scale.prefixes, 60);
  options.num_updates = std::min<std::size_t>(scale.updates, 40);
  const chaos::MatrixReport report = chaos::run_matrix(options);

  std::size_t byzantine_cells = 0, byzantine_detected = 0, benign_cells = 0;
  netsim::FaultCounts faults;
  std::uint64_t partition_drops = 0, detections = 0;
  for (const chaos::CellResult& cell : report.cells) {
    if (cell.expected == core::FaultKind::kNone) {
      ++benign_cells;
    } else {
      ++byzantine_cells;
      if (cell.pass) ++byzantine_detected;
    }
    detections += cell.detections.size();
    faults.dropped += cell.faults.dropped;
    faults.duplicated += cell.faults.duplicated;
    faults.delayed += cell.faults.delayed;
    faults.corrupted += cell.faults.corrupted;
    partition_drops += cell.partition_drops;
  }

  json::Object out;
  json::Object config;
  config["catalog_entries"] = static_cast<std::uint64_t>(chaos::catalog().size());
  config["benign_profiles"] = static_cast<std::uint64_t>(chaos::benign_profiles().size());
  config["cells"] = static_cast<std::uint64_t>(report.cells.size());
  config["prefixes"] = static_cast<std::uint64_t>(options.num_prefixes);
  config["updates"] = static_cast<std::uint64_t>(options.num_updates);
  out["config"] = std::move(config);

  json::Array results;
  results.push_back(result_row("byzantine cells detected with declared class",
                               static_cast<double>(byzantine_detected), "cells",
                               std::to_string(byzantine_cells) + " (all)"));
  results.push_back(result_row("byzantine cells missing their fault class",
                               static_cast<double>(report.missed_detections()), "cells", "0"));
  results.push_back(result_row("benign cells with false positives",
                               static_cast<double>(report.false_positives()), "cells", "0"));
  results.push_back(result_row("benign cells swept", static_cast<double>(benign_cells), "cells", "-"));
  results.push_back(result_row("detections raised", static_cast<double>(detections), "detections", "-"));
  results.push_back(result_row("injected drops", static_cast<double>(faults.dropped), "messages", "-"));
  results.push_back(
      result_row("injected duplicates", static_cast<double>(faults.duplicated), "messages", "-"));
  results.push_back(result_row("injected jitter delays", static_cast<double>(faults.delayed),
                               "messages", "-"));
  results.push_back(result_row("injected corruptions", static_cast<double>(faults.corrupted),
                               "messages", "-"));
  results.push_back(result_row("partition drops", static_cast<double>(partition_drops), "messages",
                               "-"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_fullscale(const benchutil::BenchScale& scale) {
  // E12: incremental commitment maintenance under the paper's replay
  // workload — build the full table once, then feed 15 one-minute rounds
  // of bursty updates through Mtt::apply and compare the per-round relabel
  // cost against rebuilding the whole tree every commit interval (§7.5's
  // "MTT generation" line is the rebuild-every-time cost this removes).
  constexpr std::uint32_t k = 50;
  constexpr int kRounds = 15;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = scale.updates;
  config.duration = 15LL * 60 * netsim::kMicrosPerSecond;
  config.seed = 20120118;
  auto tr = trace::generate(config);

  // Deterministic per-(prefix, version) bit vectors so re-announcements
  // actually flip bits (relabeling the prefix node) instead of no-op'ing.
  auto bits_for = [](const bgp::Prefix& prefix, std::uint64_t version) {
    util::SplitMix64 rng((static_cast<std::uint64_t>(prefix.bits()) << 16) ^
                         (static_cast<std::uint64_t>(prefix.length()) << 8) ^ version);
    std::vector<bool> bits(k, false);
    bits[0] = true;  // the always-available ⊥ class
    for (std::uint32_t c = 1; c < k; ++c) bits[c] = rng.below(4) == 0;
    return bits;
  };

  std::map<bgp::Prefix, std::vector<bool>> current;
  std::map<bgp::Prefix, std::uint64_t> version;
  std::vector<std::pair<bgp::Prefix, std::vector<bool>>> entries;
  entries.reserve(tr.rib_snapshot.size());
  for (const auto& route : tr.rib_snapshot) {
    auto bits = bits_for(route.prefix, 0);
    current[route.prefix] = bits;
    entries.emplace_back(route.prefix, std::move(bits));
  }

  crypto::CommitmentPrf prf(crypto::seed_from_string("fullscale-bench"));
  util::WallTimer build_timer;
  auto tree = core::Mtt::build(std::move(entries), k);
  tree.compute_labels(prf, threads);
  const double initial_seconds = build_timer.seconds();
  const std::uint64_t initial_hashes = tree.last_label_hashes();

  // Partition the replay stream into one-minute commit rounds.
  const netsim::Time round_len = config.duration / kRounds;
  std::uint64_t total_updates = 0, total_hashes = 0;
  double total_latency = 0, max_latency = 0;
  json::Array round_hashes, round_latencies;
  std::size_t event_index = 0;
  for (int round = 0; round < kRounds; ++round) {
    const netsim::Time cutoff = (round + 1 == kRounds)
                                    ? std::numeric_limits<netsim::Time>::max()
                                    : static_cast<netsim::Time>(round + 1) * round_len;
    std::vector<core::MttUpdate> updates;
    for (; event_index < tr.events.size() && tr.events[event_index].time < cutoff;
         ++event_index) {
      const bgp::Update& update = tr.events[event_index].update;
      for (const auto& route : update.announced) {
        auto bits = bits_for(route.prefix, ++version[route.prefix]);
        current[route.prefix] = bits;
        updates.push_back(core::MttUpdate{route.prefix, std::move(bits)});
      }
      for (const auto& prefix : update.withdrawn) {
        current.erase(prefix);
        updates.push_back(core::MttUpdate{prefix, std::nullopt});
      }
    }
    total_updates += updates.size();
    util::WallTimer timer;
    const std::uint64_t hashes = tree.apply(updates, prf, threads);
    const double seconds = timer.seconds();
    total_hashes += hashes;
    total_latency += seconds;
    max_latency = std::max(max_latency, seconds);
    round_hashes.push_back(static_cast<std::uint64_t>(hashes));
    round_latencies.push_back(seconds);
  }

  // Differential ground truth: a fresh build over the final routing state
  // must reproduce the incrementally maintained root, and its labeling pass
  // is the per-commit cost a rebuild-every-interval recorder would pay.
  std::vector<std::pair<bgp::Prefix, std::vector<bool>>> final_entries(current.begin(),
                                                                       current.end());
  auto rebuilt = core::Mtt::build(std::move(final_entries), k);
  rebuilt.compute_labels(prf, threads);
  const bool root_matches = tree.root_label() == rebuilt.root_label();
  const std::uint64_t rebuild_hashes = rebuilt.last_label_hashes();
  const double mean_hashes =
      static_cast<double>(total_hashes) / static_cast<double>(kRounds);
  const double reduction =
      mean_hashes > 0 ? static_cast<double>(rebuild_hashes) / mean_hashes : 0;

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["rounds"] = static_cast<std::uint64_t>(kRounds);
  cfg["num_classes"] = static_cast<std::uint64_t>(k);
  cfg["threads"] = static_cast<std::uint64_t>(threads);
  cfg["round_relabel_hashes"] = std::move(round_hashes);
  cfg["round_commit_seconds"] = std::move(round_latencies);
  out["config"] = std::move(cfg);
  json::Array results;
  results.push_back(result_row("initial build + label", initial_seconds, "s",
                               "38.8 @ 391028 prefixes, c=1"));
  results.push_back(result_row("initial label hashes", static_cast<double>(initial_hashes),
                               "hashes", "-"));
  results.push_back(
      result_row("updates replayed", static_cast<double>(total_updates), "updates", "38696"));
  results.push_back(result_row("commit rounds", kRounds, "rounds", "13-15 in the replay period"));
  results.push_back(result_row("mean commit latency", total_latency / kRounds, "s", "-"));
  results.push_back(result_row("max commit latency", max_latency, "s", "-"));
  results.push_back(
      result_row("incremental relabel hashes per round (mean)", mean_hashes, "hashes", "-"));
  results.push_back(result_row("full-rebuild hashes at equal tree size",
                               static_cast<double>(rebuild_hashes), "hashes", "-"));
  results.push_back(
      result_row("relabel hash reduction vs rebuild", reduction, "x", ">= 10 expected"));
  results.push_back(result_row("incremental root matches fresh rebuild", root_matches ? 1 : 0,
                               "bool", "1"));
  results.push_back(result_row("peak RSS", peak_rss_bytes, "bytes", "-"));
  out["results"] = std::move(results);
  return out;
}

// True when two session reports would lead a deployment to the same
// remediation: same equivocation/root verdicts and, per neighbor, the
// same detections with the same evidence strings.
bool reports_identical(const proto::VerificationReport& a, const proto::VerificationReport& b) {
  auto same_detection = [](const std::optional<core::Detection>& x,
                           const std::optional<core::Detection>& y) {
    if (x.has_value() != y.has_value()) return false;
    if (!x) return true;
    return x->kind == y->kind && x->accused == y->accused && x->detail == y->detail;
  };
  if (a.elector != b.elector || a.commit_time != b.commit_time) return false;
  if (a.root_matches != b.root_matches) return false;
  if (!same_detection(a.equivocation, b.equivocation)) return false;
  if (a.verdicts.size() != b.verdicts.size()) return false;
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    const auto& va = a.verdicts[i];
    const auto& vb = b.verdicts[i];
    if (va.neighbor != vb.neighbor) return false;
    if (!same_detection(va.as_producer, vb.as_producer)) return false;
    if (!same_detection(va.as_consumer, vb.as_consumer)) return false;
    if (!same_detection(va.extended, vb.extended)) return false;
  }
  return true;
}

json::Object run_verify(const benchutil::BenchScale& scale) {
  // E13: the pipelined verification-session engine (src/verify) against
  // the sequential baseline, measured in the same run over the same
  // deployment — proof bytes, challenge round-trips, digest operations
  // and wall-clock per verified prefix.  RSA signing so the per-session
  // batch verification path is exercised too.
  auto tr = benchutil::bench_trace(scale, 60 * netsim::kMicrosPerSecond);
  proto::Fig5Deployment deploy(deployment_config(false, true));
  netsim::Time start = deploy.run_setup(tr, 120 * netsim::kMicrosPerSecond);
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();

  // Sequential baseline: one round per neighbor, scalar signature
  // checks, no proof-path cache, no generator memo.
  auto sequential =
      verify::run_session(deploy, 5, record.timestamp, verify::SessionConfig{}, /*extended=*/true);

  // Pipelined engine: windowed rounds, proof-path cache, generator-side
  // proof memo, batched RSA signature verification.
  auto pipelined = verify::run_session(deploy, 5, record.timestamp, verify::pipelined_config(),
                                       /*extended=*/true);

  const auto& seq = sequential.stats;
  const auto& pip = pipelined.stats;
  // Both runs check one proof per (prefix, neighbor role), so per-proof
  // normalization equals per-verified-prefix normalization.
  const double seq_per_prefix =
      seq.proofs_checked != 0
          ? static_cast<double>(seq.digest_ops) / static_cast<double>(seq.proofs_checked)
          : 0;
  const double pip_per_prefix =
      pip.proofs_checked != 0
          ? static_cast<double>(pip.digest_ops) / static_cast<double>(pip.proofs_checked)
          : 0;
  const double digest_ratio = pip_per_prefix != 0 ? seq_per_prefix / pip_per_prefix : 0;
  const double wall_ratio =
      pip.session_seconds != 0 ? seq.session_seconds / pip.session_seconds : 0;
  const double hit_ratio =
      pip.cache_hits + pip.cache_misses != 0
          ? static_cast<double>(pip.cache_hits) /
                static_cast<double>(pip.cache_hits + pip.cache_misses)
          : 0;
  const double wall_per_prefix =
      pip.proofs_checked != 0 ? pip.session_seconds / static_cast<double>(pip.proofs_checked) : 0;

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["window"] = static_cast<std::uint64_t>(verify::pipelined_config().window);
  cfg["round_prefixes"] = static_cast<std::uint64_t>(verify::pipelined_config().round_prefixes);
  cfg["sign_scheme"] = std::string("rsa");
  out["config"] = std::move(cfg);
  json::Array results;
  results.push_back(result_row("sequential session wall", seq.session_seconds, "s", "baseline"));
  results.push_back(result_row("pipelined session wall", pip.session_seconds, "s", "-"));
  results.push_back(
      result_row("session wall-clock ratio (seq/pipelined)", wall_ratio, "x", ">= 2 required"));
  results.push_back(result_row("sequential digest ops per verified prefix", seq_per_prefix,
                               "digests", "baseline"));
  results.push_back(
      result_row("pipelined digest ops per verified prefix", pip_per_prefix, "digests", "-"));
  results.push_back(
      result_row("digest ops ratio (seq/pipelined)", digest_ratio, "x", ">= 3 required"));
  results.push_back(result_row("pipelined wall-clock per verified prefix", wall_per_prefix, "s",
                               "-"));
  results.push_back(result_row("proof bytes shipped",
                               static_cast<double>(pip.bytes_shipped), "bytes", "-"));
  results.push_back(result_row("proof bytes deduped",
                               static_cast<double>(pip.bytes_deduped), "bytes", "-"));
  results.push_back(result_row("challenge round-trips",
                               static_cast<double>(pip.challenge_round_trips), "round-trips",
                               "one per window-slot round"));
  results.push_back(result_row("proof-path cache hit ratio", hit_ratio, "ratio", "-"));
  results.push_back(result_row("signatures verified",
                               static_cast<double>(pip.signatures_verified), "signatures", "-"));
  results.push_back(result_row("signature batches",
                               static_cast<double>(pip.signature_batches), "batches",
                               "Montgomery context amortized per batch"));
  results.push_back(result_row("verdicts identical to sequential",
                               reports_identical(sequential.report, pipelined.report) ? 1 : 0,
                               "bool", "1"));
  results.push_back(result_row("session clean", pipelined.report.clean() ? 1 : 0, "bool", "1"));
  out["results"] = std::move(results);
  return out;
}

// ---------------------------------------------------------------------------
// Scenario registry and runner

struct Scenario {
  const char* name;
  const char* experiment;
  const char* paper_ref;
  json::Object (*run)(const benchutil::BenchScale&);
};

const Scenario kScenarios[] = {
    {"communities", "E1", "Figure 2 (supporting data for §3)", run_communities},
    {"mtt_size", "E2", "§7.3 'MTT size'", run_mtt_size},
    {"labeling", "E3", "§7.3 'Labeling time'", run_labeling},
    {"proof", "E4/E5", "§7.3 'Proof generation and proof size' / 'Proof checking'", run_proof},
    {"functionality", "E6", "§7.4 'Functionality check'", run_functionality},
    {"computation", "E7", "§7.5 'Overhead: Computation'", run_computation},
    {"bandwidth", "E8", "§7.6 'Overhead: Bandwidth'", run_bandwidth},
    {"storage", "E9", "§7.7 'Overhead: Storage'", run_storage},
    {"crypto", "E10", "crypto/commitment microbenchmarks", run_crypto},
    {"ablation", "A1-A4", "DESIGN.md design-choice index", run_ablation},
    {"chaos", "E11", "§5/§7.4 detection matrix under injected faults", run_chaos},
    {"fullscale", "E12", "§7.3/§7.5 incremental commitments under the 15-minute replay",
     run_fullscale},
    {"verify", "E13", "src/verify pipelined session engine vs the sequential baseline",
     run_verify},
};

// A positive decimal number; a typo'd --prefixes must not quietly run a
// default- or zero-size bench.
std::optional<std::size_t> parse_size(std::string_view text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value == 0) return std::nullopt;
  return value;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--all] [--scenario NAME]... [--out-dir DIR]\n"
               "          [--prefixes N] [--updates N] [--check-schema] [--baseline FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> wanted;
  std::string out_dir = ".";
  std::string baseline_path;
  std::size_t prefixes = 20'000;
  std::optional<std::size_t> updates;
  bool all = false, list = false, check_schema = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--scenario") {
      wanted.push_back(next());
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--prefixes" || arg == "--updates") {
      std::optional<std::size_t> value = parse_size(next());
      if (!value) return usage(argv[0]);
      if (arg == "--prefixes") {
        prefixes = *value;
      } else {
        updates = value;
      }
    } else if (arg == "--check-schema") {
      check_schema = true;
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else {
      return usage(argv[0]);
    }
  }

  if (list) {
    for (const Scenario& s : kScenarios) {
      std::printf("%-14s %-6s %s\n", s.name, s.experiment, s.paper_ref);
    }
    return 0;
  }
  if (!all && wanted.empty()) return usage(argv[0]);
  for (const std::string& name : wanted) {
    bool known = false;
    for (const Scenario& s : kScenarios) known |= name == s.name;
    if (!known) {
      std::fprintf(stderr, "unknown scenario: %s (try --list)\n", name.c_str());
      return 2;
    }
  }

  const benchutil::BenchScale scale = benchutil::bench_scale(prefixes, updates);
  json::Object combined;
  combined["schema"] = "spider-bench-baseline-v1";
  json::Object combined_scenarios;

  for (const Scenario& s : kScenarios) {
    bool selected = all;
    for (const std::string& name : wanted) selected |= name == s.name;
    if (!selected) continue;

    std::printf("== %s (%s, %s)\n", s.name, s.experiment, s.paper_ref);
    // Per-scenario metric deltas: everything the scenario's run adds to
    // the registry from this point on is attributed to it.
    obs::MetricsRegistry::instance().reset();
    util::WallTimer timer;
    json::Object body = s.run(scale);
    double wall = timer.seconds();
    obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();

    json::Object doc;
    doc["schema"] = "spider-bench-v1";
    doc["scenario"] = s.name;
    doc["experiment"] = s.experiment;
    doc["paper_ref"] = s.paper_ref;
    doc["wall_seconds"] = wall;
    doc["config"] = std::move(body.at("config"));
    doc["results"] = std::move(body.at("results"));
    doc["metrics"] = snap.to_json();

    std::string path = out_dir + "/BENCH_" + s.name + ".json";
    std::string text = json::Value(doc).dump(2);
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    file << text << "\n";
    file.close();
    std::printf("   wrote %s (%.2f s, %zu counters)\n", path.c_str(), wall, snap.counters.size());

    if (check_schema) {
      std::ifstream in(path);
      std::string round_trip((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      validate_bench_json(json::parse(round_trip));
      std::printf("   schema ok\n");
    }
    combined_scenarios[s.name] = std::move(doc);
  }

  if (!baseline_path.empty()) {
    combined["scenarios"] = std::move(combined_scenarios);
    std::ofstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", baseline_path.c_str());
      return 1;
    }
    file << json::Value(combined).dump(2) << "\n";
    std::printf("== wrote combined baseline %s\n", baseline_path.c_str());
  }
  return 0;
}
