// ingest: the recorder's cost per update and per commitment (§7.5).
//
// AS 5's speaker and recorder run in process on one netsim::Simulator over
// NetsimTransport, hosted the way `spider_node --role recorder` hosts
// them: incremental commits, a fresh seed per commitment, and a checkpoint
// plus two-round retention after every commitment.  One SPIDeR neighbor
// recorder (AS 2) receives, checks and ACKs every RSA-1024-signed batch.
// A seeded bursty trace is fed as pre-encoded InjectFrames over a
// pre-filled table.  Simulated time follows the trace and commitments fall
// every kCommitInterval of it, so on every run with one seed the batch
// windows and commitments fall at the same updates.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/mtt.hpp"
#include "core/promise.hpp"
#include "crypto/ct.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "spider/state.hpp"
#include "trace/routeviews.hpp"
#include "transport/netsim_transport.hpp"
#include "reference.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spider;

constexpr bgp::AsNumber kElector = 5;
constexpr bgp::AsNumber kNeighbor = 2;
constexpr bgp::AsNumber kTracePeer = 1000;
constexpr std::uint32_t kClasses = 50;  // the paper's §7.2 configuration
constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;
constexpr netsim::Time kBatchWindow = 10'000;  // spider_node's default
constexpr netsim::Time kLinkLatency = 1'000;
/// The traffic is the paper's own (§7.2, §7.5), scaled pro rata to the
/// table the way the repository's benches scale it (bench/bench_util.hpp):
/// 38,696 updates in 15 minutes over 391,028 prefixes, here over 2,000
/// prefixes, with one commitment a minute.  That is about 13 updates per
/// commitment, so, as in the paper's §7.5, labeling the MTT for each
/// commitment is most of the recorder's work.  The table is small enough
/// for a run to hold several hundred commitments.
constexpr std::size_t kPrefixes = 2'000;
constexpr double kPaperPrefixes = 391'028;
constexpr double kPaperUpdates = 38'696;
constexpr double kPaperTraceSeconds = 15 * 60;
constexpr netsim::Time kCommitInterval = 60 * kSecond;
/// Commitments per measured segment: the unit of fixed work that each
/// ingest-rate repeat and each per-layer figure covers.
constexpr int kCommitsPerSegment = 20;
/// Trace updates per segment at that rate: 264.
const std::size_t kUpdatesPerSegment = static_cast<std::size_t>(
    std::round(kPaperUpdates * (static_cast<double>(kPrefixes) / kPaperPrefixes) *
               (kCommitsPerSegment * static_cast<double>(kCommitInterval / kSecond)) /
               kPaperTraceSeconds));
/// Wall time one segment takes on a 4-core x86 host.  A run measures
/// --seconds / kNominalSegmentSeconds segments, a count fixed by the run
/// length alone, so every build takes its medians over the same slices of
/// the trace.
constexpr double kNominalSegmentSeconds = 1.5;
/// A run whose measuring takes this many times --seconds, or this many
/// seconds, is stopped and marked failed: a safety stop well inside
/// perfbench/run.py's 170 s limit, never the end of a normal run.
constexpr double kOverrunFactor = 3;
constexpr double kOverrunSeconds = 120;

// The benchmark's spans around each layer call.
constexpr const char* kSpanDecode = "node_wire.decode";
constexpr const char* kSpanInject = "bgp.inject";
constexpr const char* kSpanDrain = "spider.recorder.drain";
constexpr const char* kSpanCommit = "spider.recorder.commit";
constexpr const char* kSpanCheckpoint = "spider.recorder.checkpoint";
constexpr const char* kSpanRetention = "spider.log.retention";

/// Timings of the calls the commit hook makes, one entry per commitment:
/// the whole commitment in CPU and wall time, its parts in wall time.
struct CommitTimings {
  std::vector<double> cpu_ms, total_ms, make_ms, checkpoint_ms, retention_ms;
  std::vector<double> checkpoint_bytes;
  std::uint64_t pruned_log_bytes = 0;
};

/// AS 5 (elector) and AS 2 (neighbor), each a speaker plus a recorder, on
/// one simulator.  Holds references into itself, so it never moves.
class Host {
 public:
  Host(const crypto::RsaPrivateKey& elector_key, const crypto::RsaPrivateKey& neighbor_key,
       Tracer& tracer, CommitTimings& timings)
      : elector_signer_(elector_key), neighbor_signer_(neighbor_key), tracer_(tracer),
        timings_(timings) {
    keys_.add(kElector, std::make_unique<crypto::RsaVerifier>(elector_key.public_key()));
    keys_.add(kNeighbor, std::make_unique<crypto::RsaVerifier>(neighbor_key.public_key()));
    elector_ = host(kElector, kNeighbor, elector_signer_, elector_speaker_, elector_link_);
    neighbor_ = host(kNeighbor, kElector, neighbor_signer_, neighbor_speaker_, neighbor_link_);
    sim_.connect(elector_node_, neighbor_node_, kLinkLatency);
    elector_link_->register_peer(kNeighbor, neighbor_node_);
    neighbor_link_->register_peer(kElector, elector_node_);
    elector_->set_commitment_hook([this](const proto::CommitmentRecord&) { after_commit(); });
    // Commitments are driven below at fixed points of the trace's clock
    // rather than by the recorder's own timer, so each one can be timed.
    elector_->start(/*schedule_commitments=*/false);
    neighbor_->start(/*schedule_commitments=*/false);
  }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  netsim::Simulator& sim() { return sim_; }
  bgp::Speaker& speaker() { return *elector_speaker_; }
  proto::Recorder& elector() { return *elector_; }
  proto::Recorder& neighbor() { return *neighbor_; }

  /// One commitment exactly as spider_node's hook completes it; returns
  /// the commitment's timestamp.
  proto::Time commit() {
    const double cpu_start = cpu_s();
    const double start = now_s();
    proto::Time stamp = 0;
    {
      Tracer::Scope span(tracer_, kSpanCommit);
      stamp = elector_->make_commitment().timestamp;
    }
    const double end = now_s();
    timings_.cpu_ms.push_back((cpu_s() - cpu_start) * 1e3);
    timings_.total_ms.push_back((end - start) * 1e3);
    timings_.make_ms.push_back((hook_start_ - start) * 1e3 + (end - hook_end_) * 1e3);
    // The neighbor never commits; like spider_node's checker it retires
    // its log on the elector's commitment cadence.
    neighbor_->enforce_retention(sim_.now() - 2 * kCommitInterval);
    return stamp;
  }

 private:
  std::unique_ptr<proto::Recorder> host(bgp::AsNumber asn, bgp::AsNumber peer,
                                        const crypto::Signer& signer,
                                        std::unique_ptr<bgp::Speaker>& speaker,
                                        std::unique_ptr<transport::NetsimTransport>& link) {
    speaker = std::make_unique<bgp::Speaker>(sim_, asn, bgp::Policy{});
    sim_.add_node(*speaker, "bgp-as" + std::to_string(asn));
    link = std::make_unique<transport::NetsimTransport>(sim_);
    const netsim::NodeId node = sim_.add_node(*link, "rec-as" + std::to_string(asn));
    (asn == kElector ? elector_node_ : neighbor_node_) = node;
    proto::RecorderConfig config;
    config.asn = asn;
    config.num_classes = kClasses;
    config.commit_interval = kCommitInterval;
    config.batch_window = kBatchWindow;
    config.incremental_commits = true;
    auto recorder = std::make_unique<proto::Recorder>(*link, config, signer, keys_, *speaker);
    // Observed-only, as in spider_node: the export pipeline runs, but the
    // neighbor router itself is not simulated.
    speaker->add_observed_neighbor(peer);
    recorder->add_neighbor(peer);
    recorder->set_promise(peer, core::Promise::total_order(kClasses));
    return recorder;
  }

  /// spider_node's commitment hook: checkpoint the committed round and
  /// keep two rounds of history.
  void after_commit() {
    hook_start_ = now_s();
    {
      Tracer::Scope span(tracer_, kSpanCheckpoint);
      elector_->make_checkpoint();
    }
    const double checkpointed = now_s();
    timings_.checkpoint_ms.push_back((checkpointed - hook_start_) * 1e3);
    timings_.checkpoint_bytes.push_back(
        static_cast<double>(elector_->log().checkpoints().back().state_bytes()));
    checkpoint_times_.push_back(elector_->log().checkpoints().back().timestamp);
    if (checkpoint_times_.size() >= 3) {
      Tracer::Scope span(tracer_, kSpanRetention);
      const std::uint64_t before = elector_->log().message_bytes();
      elector_->enforce_retention(checkpoint_times_[checkpoint_times_.size() - 3]);
      timings_.pruned_log_bytes += before - elector_->log().message_bytes();
      checkpoint_times_.erase(checkpoint_times_.begin(), checkpoint_times_.end() - 3);
    }
    hook_end_ = now_s();
    timings_.retention_ms.push_back((hook_end_ - checkpointed) * 1e3);
  }

  netsim::Simulator sim_;
  core::KeyRegistry keys_;
  crypto::RsaSigner elector_signer_, neighbor_signer_;
  std::unique_ptr<bgp::Speaker> elector_speaker_, neighbor_speaker_;
  std::unique_ptr<transport::NetsimTransport> elector_link_, neighbor_link_;
  netsim::NodeId elector_node_ = 0, neighbor_node_ = 0;
  std::unique_ptr<proto::Recorder> elector_, neighbor_;
  Tracer& tracer_;
  CommitTimings& timings_;
  std::vector<proto::Time> checkpoint_times_;
  double hook_start_ = 0, hook_end_ = 0;
};

/// Table prefill (the RIB snapshot, 50 routes per UPDATE) and the first
/// commitment; returns the simulated time the measured stream starts at.
netsim::Time prefill(Host& host, const std::vector<bgp::Route>& table) {
  constexpr std::size_t kChunk = 50;
  netsim::Time at = 0;
  for (std::size_t first = 0; first < table.size(); first += kChunk) {
    bgp::Update update;
    const std::size_t last = std::min(table.size(), first + kChunk);
    update.announced.assign(table.begin() + static_cast<std::ptrdiff_t>(first),
                            table.begin() + static_cast<std::ptrdiff_t>(last));
    at += kBatchWindow / 4;
    host.sim().run_until(at);
    host.speaker().inject(kTracePeer, update);
  }
  at += kCommitInterval;
  host.sim().run_until(at);
  host.commit();
  at += kCommitInterval;
  host.sim().run_until(at);
  return at;
}

}  // namespace

void run_ingest(const RunOptions& options, Report& report) {
  // ---- Inputs (not timed): the trace, its frames, and the RSA keys.
  const auto segments_planned = static_cast<std::uint64_t>(
      std::max(1.0, std::round(options.seconds / kNominalSegmentSeconds)));
  trace::TraceConfig config;
  config.num_prefixes = kPrefixes;
  const netsim::Time segment_length = kCommitInterval * kCommitsPerSegment;
  config.duration = static_cast<netsim::Time>(segments_planned) * segment_length;
  config.num_updates = segments_planned * kUpdatesPerSegment;
  config.seed = options.seed;
  config.peer_as = kTracePeer;
  std::vector<util::Bytes> frames;
  std::vector<netsim::Time> times;
  std::vector<bgp::Route> table;
  {
    trace::RouteViewsTrace trace = trace::generate(config);
    // Every segment gets the same number of updates: segment k's share of
    // the trace, in its arrival pattern, stretched or squeezed to fill the
    // segment.  Otherwise the ingest rate would follow how many bursts a
    // seed happens to put in each segment.
    std::vector<trace::TraceEvent>& events = trace.events;
    for (std::uint64_t k = 0; k < segments_planned; ++k) {
      const std::size_t first = k * kUpdatesPerSegment;
      const std::size_t end = first + kUpdatesPerSegment;
      const netsim::Time from = events[first].time;
      const netsim::Time to = end < events.size() ? events[end].time : config.duration;
      const double scale = static_cast<double>(segment_length - 1) /
                           static_cast<double>(std::max<netsim::Time>(1, to - from));
      for (std::size_t i = first; i < end; ++i) {
        events[i].time = static_cast<netsim::Time>(k) * segment_length +
                         static_cast<netsim::Time>(static_cast<double>(events[i].time - from) *
                                                   scale);
      }
    }
    frames.reserve(trace.events.size());
    times.reserve(trace.events.size());
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      proto::InjectFrame frame;
      frame.seq = i;
      frame.sent_at = trace.events[i].time;
      frame.update = std::move(trace.events[i].update);
      frames.push_back(frame.encode());
      times.push_back(trace.events[i].time);
    }
    table = std::move(trace.rib_snapshot);
  }
  util::SplitMix64 key_rng(options.seed ^ 0x5EED5EEDull);
  const crypto::RsaPrivateKey elector_key = crypto::rsa_generate(1024, key_rng);
  const crypto::RsaPrivateKey neighbor_key = crypto::rsa_generate(1024, key_rng);
  prepare_reference();

  // ---- Set-up, repeated; the last host is the one measured.
  const double inputs_mb = reset_peak_rss();
  Tracer tracer(false);
  CommitTimings timings;
  std::vector<double> setup_seconds, setup_walls, references;
  std::unique_ptr<Host> host;
  netsim::Time stream_start = 0;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    host.reset();
    references.push_back(reference_s());
    const double cpu_start = cpu_s();
    const double start = now_s();
    host = std::make_unique<Host>(elector_key, neighbor_key, tracer, timings);
    stream_start = prefill(*host, table);
    setup_walls.push_back(now_s() - start);
    setup_seconds.push_back(at_reference_speed(cpu_s() - cpu_start, references.back()));
  }
  timings = CommitTimings{};

  // ---- The measured stream: segments_planned segments of
  // kCommitsPerSegment commitments each.
  proto::Recorder& elector = host->elector();
  const obs::Snapshot before = obs::MetricsRegistry::instance().snapshot();
  const std::uint64_t mirrored_before = elector.updates_mirrored();
  const std::uint64_t signatures_before = elector.signatures_performed();
  const std::uint64_t sent_before = elector.bytes_sent();
  const std::uint64_t log_before = elector.log().message_bytes();
  std::vector<double> segment_rates, segment_cpu_rates, commit_cpu_ms, traced_walls, untraced_walls;
  std::size_t next_event = 0;
  std::uint64_t injected = 0;
  netsim::Time next_commit = stream_start + kCommitInterval;
  proto::Time last_commit = 0;
  const double run_start = now_s();
  const double overrun = std::min(kOverrunFactor * options.seconds, kOverrunSeconds);
  for (std::uint64_t segment = 0; segment < segments_planned; ++segment) {
    const netsim::Time segment_end =
        stream_start + segment_length * static_cast<netsim::Time>(segment + 1);
    // Traced runs alternate traced and untraced segments; the ratio of
    // their wall times is the tracing overhead.
    const bool traced = options.trace && segment % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_op(segment);
    const std::uint64_t mirrored_start = elector.updates_mirrored();
    const std::size_t commits_start = timings.cpu_ms.size();
    references.push_back(reference_s());
    const double cpu_start = cpu_s();
    const double start = now_s();
    while (next_commit <= segment_end) {
      for (; next_event < times.size() && stream_start + times[next_event] < next_commit;
           ++next_event) {
        const netsim::Time at = stream_start + times[next_event];
        {
          Tracer::Scope span(tracer, kSpanDrain);
          host->sim().run_until(at);
        }
        proto::InjectFrame frame;
        {
          Tracer::Scope span(tracer, kSpanDecode);
          frame = proto::InjectFrame::decode(frames[next_event]);
        }
        {
          Tracer::Scope span(tracer, kSpanInject);
          host->speaker().inject(kTracePeer, frame.update);
        }
        ++injected;
      }
      {
        Tracer::Scope span(tracer, kSpanDrain);
        host->sim().run_until(next_commit);
      }
      last_commit = host->commit();
      next_commit += kCommitInterval;
    }
    const double wall = now_s() - start;
    const double cpu = at_reference_speed(cpu_s() - cpu_start, references.back());
    for (std::size_t i = commits_start; i < timings.cpu_ms.size(); ++i) {
      commit_cpu_ms.push_back(at_reference_speed(timings.cpu_ms[i], references.back()));
    }
    const auto segment_mirrored = static_cast<double>(elector.updates_mirrored() - mirrored_start);
    segment_rates.push_back(segment_mirrored / wall);
    segment_cpu_rates.push_back(segment_mirrored / cpu);
    (traced ? traced_walls : untraced_walls).push_back(wall);
    if (now_s() - run_start >= overrun) {
      report.wrong("measured only " + std::to_string(segment + 1) + " of " +
                   std::to_string(segments_planned) + " segments in " +
                   std::to_string(static_cast<int>(overrun)) + " s");
      break;
    }
  }
  tracer.set_enabled(false);
  const obs::Snapshot after = obs::MetricsRegistry::instance().snapshot();
  // Let the last batches and their ACKs land before checking.
  host->sim().run_until(host->sim().now() + 4 * kBatchWindow + 10 * kLinkLatency);

  const double segments = static_cast<double>(segment_rates.size());
  const double mirrored = static_cast<double>(elector.updates_mirrored() - mirrored_before);
  const std::size_t commits = timings.total_ms.size();
  report.attempt(injected + commits);

  // ---- Answers.  Alarms in an honest run are failed operations; a root
  // that replay or a fresh build cannot reproduce is a wrong answer.
  for (const proto::Recorder* recorder : {&host->elector(), &host->neighbor()}) {
    for (const std::string& alarm : recorder->alarms()) report.fail("recorder alarm: " + alarm);
  }
  const std::size_t alarms = host->elector().alarms().size() + host->neighbor().alarms().size();
  if (segment_rates.empty() || commits == 0) report.wrong("no segment was measured");
  {
    const proto::CommitmentRecord* record = elector.log().commitment_at(last_commit);
    if (record == nullptr) {
      report.wrong("the last commitment is not in the log");
    } else {
      core::Mtt fresh = core::Mtt::build(
          proto::build_mtt_entries(elector.state(), elector.classifier(), elector.promises(), {}),
          kClasses);
      fresh.compute_labels(crypto::CommitmentPrf(record->seed));
      if (!crypto::constant_time_equal(fresh.root_label(), record->root)) {
        report.wrong("incremental root differs from a fresh Mtt::build over the final table");
      }
      const proto::ProofGenerator generator(elector);
      if (!generator.reconstruct(last_commit).root_matches) {
        report.wrong("replayed root differs from the logged commitment");
      }
    }
  }

  // ---- End-to-end metrics.
  const double wire_per_update = ratio(static_cast<double>(elector.bytes_sent() - sent_before),
                                       mirrored);
  const double log_per_update =
      ratio(static_cast<double>(elector.log().message_bytes() - log_before +
                                timings.pruned_log_bytes),
            mirrored);
  report.e2e("setup_s", median(setup_seconds), setup_seconds.size());
  report.e2e("ops_per_cpu_s", median(segment_cpu_rates), segment_cpu_rates.size());
  report.e2e("op_ms_p50", median(commit_cpu_ms), commits);
  const std::size_t routes = static_cast<std::size_t>(mirrored);
  report.e2e("bytes_per_op", wire_per_update, routes);
  report.e2e("peak_rss_mb", peak_rss_mb() - inputs_mb, 1);
  report.note("setup_wall_s", median(setup_walls), "s", setup_walls.size());
  report.note("reference_ms_p50", median(references) * 1e3, "ms", references.size());
  report.note("ingest_updates_per_s", median(segment_rates), "1/s", segment_rates.size());
  report.note("commit_ms_p50", median(timings.total_ms), "ms", commits);
  if (auto tail = tail_percentile(commits)) {
    report.note("commit_ms_p" + percentile_label(*tail), percentile(timings.total_ms, *tail),
                "ms", commits);
  }
  report.note("wire_bytes_per_update", wire_per_update, "B", routes);
  report.note("log_bytes_per_update", log_per_update, "B", routes);

  if (!options.trace) return;

  // ---- Per-layer metrics (traced run).
  const std::map<std::string, double> self = self_times(tracer.spans());
  const double traced_segments = static_cast<double>(traced_walls.size());
  auto self_per_segment = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0 : ratio(it->second, traced_segments);
  };
  const Counters delta(before, after);
  const std::size_t traced = traced_walls.size();
  report.layer("node_wire.decode_s", self_per_segment(kSpanDecode), traced);
  report.layer("bgp.inject_s", self_per_segment(kSpanInject), traced);
  report.layer("bgp.decisions_per_update",
               ratio(delta.count("bgp/decisions"), static_cast<double>(injected)), injected);
  report.layer("spider.recorder.drain_s", self_per_segment(kSpanDrain), traced);
  report.layer("spider.recorder.routes_per_batch",
               ratio(mirrored,
                     static_cast<double>(elector.signatures_performed() - signatures_before)),
               routes);
  report.layer("crypto.rsa_sign_ops", ratio(delta.count("crypto/rsa_sign_ops"), segments),
               segment_rates.size());
  report.layer("crypto.rsa_verify_ops", ratio(delta.count("crypto/rsa_verify_ops"), segments),
               segment_rates.size());
  report.layer("spider.recorder.make_commitment_ms_p50", median(timings.make_ms), commits);
  report.layer("spider.recorder.checkpoint_ms_p50", median(timings.checkpoint_ms), commits);
  report.layer("spider.log.retention_ms_p50", median(timings.retention_ms), commits);
  report.layer("spider.log.checkpoint_bytes", median(timings.checkpoint_bytes), commits);
  report.layer("spider.log.bytes_per_update", log_per_update, routes);
  report.layer("core.mtt.label_s",
               ratio(delta.span_wall("core/mtt_label") + delta.span_wall("core/mtt_apply"),
                     segments),
               segment_rates.size());
  report.layer("core.mtt.hashes_per_commit",
               ratio(delta.count("core/mtt_label_hashes") +
                         delta.count("core/mtt_apply_hashes"),
                     static_cast<double>(commits)),
               commits);
  report.layer("core.mtt.apply_dirty_nodes",
               ratio(delta.count("core/mtt_apply_dirty_nodes"), static_cast<double>(commits)),
               commits);
  report.layer("spider.recorder.alarms", static_cast<double>(alarms), 2);
  double traced_wall = 0;
  for (double wall : traced_walls) traced_wall += wall;
  report.layer("trace.span_coverage", span_coverage(tracer.spans(), traced_wall), traced);
  report.layer("trace.overhead_ratio", ratio(median(traced_walls), median(untraced_walls)),
               traced + untraced_walls.size());
}

}  // namespace perfbench
