// verify: the neighbor-facing cost of checking one commitment (§7.3).
//
// A Figure 5 deployment with RSA-1024 signing is set up once per repeat
// (trace setup, replay, AS 5's commitment).  The measured loop then runs
// pipelined verification sessions of that commitment for all five
// neighbors and both roles, extended verification included.  Every session
// reconstructs from the log, so each starts cold; the MTT and log that
// ingest writes are read here.
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spider/checker.hpp"
#include "spider/deployment.hpp"
#include "spider/proof_generator.hpp"
#include "trace/routeviews.hpp"
#include "reference.hpp"
#include "verify/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spider;

constexpr bgp::AsNumber kElector = 5;
constexpr std::size_t kPrefixes = 1'000;
/// Trace updates replayed after set-up, pro rata to the paper's 38,696 per
/// 391,028 prefixes.
constexpr std::size_t kUpdates = 100;
constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;
/// Proof-generation workers: with the driver's own thread, the nproc (4)
/// threads of the host.
constexpr unsigned kJobs = 3;

constexpr const char* kSpanSession = "verify.session";
constexpr const char* kSpanReconstruct = "spider.proof_generator.reconstruct";
constexpr const char* kSpanProve = "spider.proof_generator.prove";
constexpr const char* kSpanEncode = "spider.proofs.encode";
constexpr const char* kSpanDecode = "spider.proofs.decode";
constexpr const char* kSpanCheck = "spider.checker.check";

struct Deployment {
  std::unique_ptr<proto::Fig5Deployment> deploy;
  proto::Time commit_time = 0;
};

Deployment set_up(const trace::RouteViewsTrace& trace) {
  proto::DeploymentConfig config;
  config.num_classes = 50;
  config.commit_ases = {};
  config.scheme = proto::DeploymentConfig::SignScheme::kRsa;
  Deployment out;
  out.deploy = std::make_unique<proto::Fig5Deployment>(config);
  const netsim::Time start = out.deploy->run_setup(trace, 120 * kSecond);
  out.deploy->run_replay(trace, start, 5 * kSecond);
  out.commit_time = out.deploy->recorder(kElector).make_commitment().timestamp;
  out.deploy->sim().run();
  return out;
}

bool same_detection(const std::optional<core::Detection>& a,
                    const std::optional<core::Detection>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->kind == b->kind && a->accused == b->accused && a->detail == b->detail);
}

/// Same equivocation and root verdicts, and per neighbor the same
/// detections with the same evidence.
bool same_verdicts(const proto::VerificationReport& a, const proto::VerificationReport& b) {
  if (a.root_matches != b.root_matches || !same_detection(a.equivocation, b.equivocation) ||
      a.verdicts.size() != b.verdicts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    const proto::NeighborVerdict& x = a.verdicts[i];
    const proto::NeighborVerdict& y = b.verdicts[i];
    if (x.neighbor != y.neighbor || !same_detection(x.as_producer, y.as_producer) ||
        !same_detection(x.as_consumer, y.as_consumer) || !same_detection(x.extended, y.extended)) {
      return false;
    }
  }
  return true;
}

/// The session's layer calls made one at a time, so each can be timed:
/// reconstruction, then per neighbor and role the proofs, their wire
/// encoding and decoding, and the checker.  These are the calls the engine
/// makes in its sequential layout.  Returns false when a check fails.
bool replay_layers(proto::Fig5Deployment& deploy, proto::Time commit_time, Tracer& tracer) {
  const proto::Recorder& elector = deploy.recorder(kElector);
  const proto::ProofGenerator generator(elector);
  std::optional<proto::ProofGenerator::Reconstruction> recon;
  {
    Tracer::Scope span(tracer, kSpanReconstruct);
    recon = generator.reconstruct(commit_time, elector.config().commit_threads);
  }
  bool clean = recon->root_matches;
  for (bgp::AsNumber neighbor : deploy.neighbors_of(kElector)) {
    const proto::Recorder& checker = deploy.recorder(neighbor);
    const proto::SpiderCommit& commit =
        checker.received_commitments().at(kElector).at(commit_time);
    std::map<bgp::Prefix, std::vector<bgp::Route>> window;
    for (const auto& [prefix, route] : checker.my_exports_to(kElector)) window[prefix] = {route};
    const std::map<bgp::Prefix, bgp::Route> imports = checker.my_imports_from(kElector);

    proto::ProducerProofs produced;
    {
      Tracer::Scope span(tracer, kSpanProve);
      produced = generator.proofs_for_producer(*recon, neighbor);
    }
    util::Bytes wire;
    {
      Tracer::Scope span(tracer, kSpanEncode);
      wire = produced.encode();
    }
    {
      Tracer::Scope span(tracer, kSpanDecode);
      produced = proto::ProducerProofs::decode(wire);
    }
    {
      Tracer::Scope span(tracer, kSpanCheck);
      clean &= !proto::Checker::check_producer_proofs(commit, kElector, window, produced,
                                                      checker.classifier());
    }

    proto::ConsumerProofs consumed;
    {
      Tracer::Scope span(tracer, kSpanProve);
      consumed = generator.proofs_for_consumer(*recon, neighbor);
    }
    {
      Tracer::Scope span(tracer, kSpanEncode);
      wire = consumed.encode();
    }
    {
      Tracer::Scope span(tracer, kSpanDecode);
      consumed = proto::ConsumerProofs::decode(wire);
    }
    {
      Tracer::Scope span(tracer, kSpanCheck);
      clean &= !proto::Checker::check_consumer_proofs(commit, kElector,
                                                      elector.promises().at(neighbor), imports,
                                                      consumed, neighbor, checker.classifier());
    }
  }
  return clean;
}

}  // namespace

void run_verify(const RunOptions& options, Report& report) {
  trace::TraceConfig config;
  config.num_prefixes = kPrefixes;
  config.num_updates = kUpdates;
  config.duration = 60 * kSecond;
  config.seed = options.seed;
  const trace::RouteViewsTrace trace = trace::generate(config);
  prepare_reference();

  const double inputs_mb = reset_peak_rss();
  std::vector<double> setup_seconds, setup_walls, references;
  Deployment setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup = Deployment{};
    references.push_back(reference_s());
    const double cpu_start = cpu_s();
    const double start = now_s();
    setup = set_up(trace);
    setup_walls.push_back(now_s() - start);
    setup_seconds.push_back(at_reference_speed(cpu_s() - cpu_start, references.back()));
  }
  proto::Fig5Deployment& deploy = *setup.deploy;

  // Once per run: the pipelined verdicts must equal the sequential ones.
  const verify::SessionResult sequential =
      verify::run_session(deploy, kElector, setup.commit_time, verify::SessionConfig{},
                          /*extended=*/true);
  report.attempt();
  if (!sequential.report.clean()) report.wrong("sequential session of an honest run is not clean");

  Tracer tracer(false);
  const verify::SessionConfig pipelined = verify::pipelined_config(kJobs);
  const obs::Snapshot before = obs::MetricsRegistry::instance().snapshot();
  std::vector<double> session_ms, session_cpu_ms, proof_rates, proof_cpu_rates;
  std::vector<double> traced_walls, untraced_walls;
  std::vector<double> reconstruct_s, engine_session_s;
  verify::SessionStats totals;
  std::size_t traced_sessions = 0;
  const double run_start = now_s();
  for (std::uint64_t session = 0; now_s() - run_start < options.seconds; ++session) {
    const bool traced = options.trace && session % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_op(session);
    report.attempt();
    references.push_back(reference_s());
    const double cpu_start = cpu_s();
    const double start = now_s();
    verify::SessionResult result;
    {
      Tracer::Scope span(tracer, kSpanSession);
      result = verify::run_session(deploy, kElector, setup.commit_time, pipelined,
                                   /*extended=*/true);
    }
    const double wall = now_s() - start;
    const double cpu = at_reference_speed(cpu_s() - cpu_start, references.back());
    (traced ? traced_walls : untraced_walls).push_back(wall);
    if (!result.report.clean() || !result.report.root_matches) {
      report.wrong("pipelined session of an honest run is not clean");
    }
    if (session == 0 && !same_verdicts(result.report, sequential.report)) {
      report.wrong("pipelined verdicts differ from the sequential session's");
    }
    const verify::SessionStats& stats = result.stats;
    session_ms.push_back(wall * 1e3);
    session_cpu_ms.push_back(cpu * 1e3);
    proof_rates.push_back(static_cast<double>(stats.proofs_checked) / wall);
    proof_cpu_rates.push_back(static_cast<double>(stats.proofs_checked) / cpu);
    reconstruct_s.push_back(stats.reconstruct_seconds);
    engine_session_s.push_back(stats.session_seconds);
    totals.proofs_checked += stats.proofs_checked;
    totals.digest_ops += stats.digest_ops;
    totals.cache_hits += stats.cache_hits;
    totals.cache_misses += stats.cache_misses;
    totals.cache_evictions += stats.cache_evictions;
    totals.bytes_shipped += stats.bytes_shipped;
    totals.bytes_deduped += stats.bytes_deduped;
    totals.challenge_round_trips += stats.challenge_round_trips;
    totals.signatures_verified += stats.signatures_verified;
    totals.signature_batches += stats.signature_batches;
    if (traced) {
      ++traced_sessions;
      if (!replay_layers(deploy, setup.commit_time, tracer)) {
        report.wrong("a checker rejected an honest proof set");
      }
    }
  }
  tracer.set_enabled(false);
  const obs::Snapshot after = obs::MetricsRegistry::instance().snapshot();
  std::size_t alarms = 0;
  for (bgp::AsNumber asn : proto::Fig5Deployment::ases()) {
    for (const std::string& alarm : deploy.recorder(asn).alarms()) {
      report.fail("recorder alarm: " + alarm);
      ++alarms;
    }
  }

  const std::size_t sessions = session_ms.size();
  const double proof_bytes_per_prefix = ratio(static_cast<double>(totals.bytes_shipped),
                                              static_cast<double>(totals.proofs_checked));
  report.e2e("setup_s", median(setup_seconds), setup_seconds.size());
  report.e2e("ops_per_cpu_s", median(proof_cpu_rates), sessions);
  report.e2e("op_ms_p50", median(session_cpu_ms), sessions);
  report.e2e("bytes_per_op", proof_bytes_per_prefix, totals.proofs_checked);
  report.e2e("peak_rss_mb", peak_rss_mb() - inputs_mb, 1);
  report.note("setup_wall_s", median(setup_walls), "s", setup_walls.size());
  report.note("reference_ms_p50", median(references) * 1e3, "ms", references.size());
  report.note("proofs_checked_per_s", median(proof_rates), "1/s", sessions);
  report.note("verify_session_s_p50", median(session_ms) / 1e3, "s", sessions);
  if (auto tail = tail_percentile(sessions)) {
    report.note("verify_session_s_p" + percentile_label(*tail),
                percentile(session_ms, *tail) / 1e3, "s", sessions);
  }
  report.note("proof_bytes_per_prefix", proof_bytes_per_prefix, "B", totals.proofs_checked);

  if (!options.trace) return;

  const double n = static_cast<double>(sessions);
  const Counters delta(before, after);
  const std::map<std::string, double> self = self_times(tracer.spans());
  auto self_per_session = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0 : ratio(it->second, static_cast<double>(traced_sessions));
  };
  // Timed directly around ProofGenerator::reconstruct in the layer replay;
  // the engine's own figure for the same call is printed beside it.
  report.layer("spider.proof_generator.reconstruct_s", self_per_session(kSpanReconstruct),
               traced_sessions);
  report.note("spider.proof_generator.reconstruct_s.engine", median(reconstruct_s), "s",
              sessions);
  report.layer("spider.proof_generator.prove_s", self_per_session(kSpanProve), traced_sessions);
  report.layer("spider.proofs.encode_s", self_per_session(kSpanEncode), traced_sessions);
  report.layer("spider.proofs.decode_s", self_per_session(kSpanDecode), traced_sessions);
  report.layer("spider.checker.check_s", self_per_session(kSpanCheck), traced_sessions);
  report.layer("verify.session_s_p50", median(engine_session_s), sessions);
  report.layer("verify.challenge_round_trips",
               ratio(static_cast<double>(totals.challenge_round_trips), n), sessions);
  report.layer("verify.signatures_per_batch",
               ratio(static_cast<double>(totals.signatures_verified),
                     static_cast<double>(totals.signature_batches)),
               totals.signature_batches);
  report.layer("verify.digest_ops_per_proof",
               ratio(static_cast<double>(totals.digest_ops),
                     static_cast<double>(totals.proofs_checked)),
               totals.proofs_checked);
  report.layer("verify.cache_hit_ratio",
               ratio(static_cast<double>(totals.cache_hits),
                     static_cast<double>(totals.cache_hits + totals.cache_misses)),
               totals.cache_hits + totals.cache_misses);
  report.layer("verify.cache_evictions", ratio(static_cast<double>(totals.cache_evictions), n),
               sessions);
  report.layer("verify.bytes_shipped", ratio(static_cast<double>(totals.bytes_shipped), n),
               sessions);
  report.layer("verify.bytes_deduped", ratio(static_cast<double>(totals.bytes_deduped), n),
               sessions);
  // Every session and every layer replay reconstructs the commitment once.
  const double reconstructions = n + static_cast<double>(traced_sessions);
  report.layer("core.mtt.label_s",
               ratio(delta.span_wall("core/mtt_label") + delta.span_wall("core/mtt_apply"),
                     reconstructions),
               sessions + traced_sessions);
  report.layer("core.mtt.hashes_per_commit",
               ratio(delta.count("core/mtt_label_hashes") +
                         delta.count("core/mtt_apply_hashes"),
                     reconstructions),
               sessions + traced_sessions);
  report.layer("crypto.rsa_sign_ops", ratio(delta.count("crypto/rsa_sign_ops"), n), sessions);
  report.layer("crypto.rsa_verify_ops", ratio(delta.count("crypto/rsa_verify_ops"), n), sessions);
  report.layer("spider.recorder.alarms", static_cast<double>(alarms),
               proto::Fig5Deployment::ases().size());
  // The session is one call into the engine; what its own spans attribute
  // of the engine's session span is the part a layer accounts for.
  report.layer("trace.span_coverage",
               ratio(delta.span_child_wall("spider/verification"),
                     delta.span_wall("spider/verification")),
               sessions);
  report.layer("trace.overhead_ratio", ratio(median(traced_walls), median(untraced_walls)),
               sessions);
}

}  // namespace perfbench
