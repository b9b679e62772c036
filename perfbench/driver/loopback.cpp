// loopback: the only workload that crosses transport and node framing
// over sockets.
//
// Three spider_node processes (recorder AS 5, checker AS 2, proof
// generator 905) run on 127.0.0.1; this single-threaded driver holds one
// TCP connection to each.  Every cycle sends update bursts (ingest rate
// between two stats barriers), then commit-visibility rounds (a small
// burst, a barrier, the wait for the next kCommitNotify), then a pipelined
// verification of the newest commitment: proof requests to the proof
// generator, each bundle relayed to the checker.  Per-update work stays
// small (keyed-hash signer, 16 classes, 2,048 prefixes), so per-frame
// transport cost is a large share.  Traffic crosses the loopback
// interface, not a real link.  Each set-up deployment is measured for an
// equal share of the run.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "node_common.hpp"
#include "obs/metrics.hpp"
#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "trace/routeviews.hpp"
#include "reference.hpp"
#include "util/serde.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spider;
using transport::PeerId;

constexpr PeerId kDriverId = 1000;  // doubles as the trace-peer AS number
constexpr PeerId kRecorderId = 5;
constexpr PeerId kCheckerId = 2;
constexpr PeerId kProofgenId = 905;
constexpr std::size_t kPrefixes = 2'048;
constexpr int kClasses = 16;
constexpr int kCommitIntervalMs = 100;
/// Routes per measured ingest burst and bursts per cycle; routes per
/// commit-visibility round and rounds per cycle.
constexpr std::size_t kBurstRoutes = 10'000;
constexpr int kBurstsPerCycle = 3;
constexpr std::size_t kVisibilityRoutes = 200;
constexpr int kVisibilityRounds = 6;
/// Pipelined verification: prefix-space chunks and rounds in flight.
constexpr std::uint32_t kVerifyRounds = 4;
constexpr std::uint32_t kVerifyWindow = 2;
/// Trace updates generated for the run, sent again from the start when a
/// run consumes them all.  Every prefix of the small table churns, so a
/// second pass changes routes as much as the first.
constexpr std::size_t kStreamUpdates = 300'000;
constexpr transport::Time kBarrierTimeout = 10'000'000;
constexpr transport::Time kNotifyTimeout = 5'000'000;
constexpr transport::Time kVerifyTimeout = 30'000'000;

constexpr const char* kSpanSend = "transport.send";
constexpr const char* kSpanWait = "transport.wait";
constexpr const char* kSpanDecode = "node_wire.decode";

/// A spider_node child process.  The destructor kills and reaps it if it
/// is still running; the child also dies with the driver (PDEATHSIG).
class NodeProcess {
 public:
  NodeProcess(const std::string& binary, const std::vector<std::string>& args,
              const std::string& log_path) {
    std::vector<std::string> argv_storage{binary};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
  }
  ~NodeProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  int pid() const { return pid_; }

  /// Waits up to `seconds` for a clean exit; true when it exited with 0.
  bool wait_exit(double seconds) {
    const double deadline = now_s() + seconds;
    while (now_s() < deadline) {
      int status = 0;
      const pid_t done = waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
};

/// The port a node wrote to its --port-file, once the line is complete.
std::uint16_t wait_port(const std::string& path) {
  const double deadline = now_s() + 10;
  while (now_s() < deadline) {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      return static_cast<std::uint16_t>(std::stoul(text));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("spider_node did not report its port: " + path);
}

/// The driver's side of the deployment: one TCP endpoint holding the three
/// connections, and what has arrived on them.
class Client {
 public:
  explicit Client(Tracer& tracer) : tracer_(tracer) {
    endpoint_.set_control_handler([this](PeerId, const proto::NodeFrame& frame) {
      Tracer::Scope span(tracer_, kSpanDecode);
      switch (frame.type) {
        case proto::NodeFrameType::kStats:
          stats_ = proto::StatsFrame::decode(frame.body);
          break;
        case proto::NodeFrameType::kCommitNotify:
          commits.push_back(proto::SpiderCommit::decode(frame.body).timestamp);
          commit_arrivals.push_back(now_s());
          break;
        case proto::NodeFrameType::kProofBundle:
          bundles.emplace_back(frame.body.begin(), frame.body.end());
          bundle_arrivals.push_back(now_s());
          break;
        case proto::NodeFrameType::kCheckResult:
          results.push_back(proto::CheckResultFrame::decode(frame.body));
          result_arrivals.push_back(now_s());
          break;
        default:
          break;
      }
    });
    tcp_.listen_on(0);
  }

  transport::TcpTransport& tcp() { return tcp_; }

  /// Sends one frame, absorbing backpressure by pumping the loop; the time
  /// spent so is the send-stall figure.
  bool send(PeerId to, proto::NodeFrameType type, util::ByteSpan body) {
    Tracer::Scope span(tracer_, kSpanSend);
    for (int attempt = 0; attempt < 1000; ++attempt) {
      if (endpoint_.send_control(to, type, body)) return true;
      if (!tcp_.peer_connected(to)) return false;
      const double start = now_s();
      ++send_stalls;
      tcp_.poll_once(1'000);
      send_stall_s += now_s() - start;
    }
    return false;
  }

  bool wait_for(const std::function<bool()>& done, transport::Time timeout) {
    Tracer::Scope span(tracer_, kSpanWait);
    return nodetool::pump_until(tcp_, done, timeout);
  }

  /// Stats barrier: the reply proves every earlier frame to `peer` was
  /// handled.
  std::optional<proto::StatsFrame> barrier(PeerId peer) {
    const std::uint64_t token = ++token_;
    util::ByteWriter w;
    w.u64(token);
    if (!send(peer, proto::NodeFrameType::kStatsRequest, w.take())) return std::nullopt;
    if (!wait_for([&] { return stats_ && stats_->token == token; }, kBarrierTimeout)) {
      return std::nullopt;
    }
    return stats_;
  }

  std::vector<proto::Time> commits;
  std::vector<double> commit_arrivals;
  std::vector<util::Bytes> bundles;
  std::vector<double> bundle_arrivals;
  std::vector<proto::CheckResultFrame> results;
  std::vector<double> result_arrivals;
  std::uint64_t send_stalls = 0;
  double send_stall_s = 0;

 private:
  Tracer& tracer_;
  transport::TcpTransport tcp_{kDriverId};
  nodetool::NodeEndpoint endpoint_{tcp_};
  std::optional<proto::StatsFrame> stats_;
  std::uint64_t token_ = 0;
};

/// Three nodes plus the driver's connections to them.
struct Deployment {
  std::unique_ptr<NodeProcess> checker, recorder, proofgen;
  std::unique_ptr<Client> client;

  /// kShutdown to every node, then a clean exit from each.
  bool shut_down() {
    for (PeerId peer : {kCheckerId, kProofgenId, kRecorderId}) {
      client->send(peer, proto::NodeFrameType::kShutdown, {});
    }
    client->tcp().run_for(100'000);
    bool clean = true;
    for (NodeProcess* node : {proofgen.get(), recorder.get(), checker.get()}) {
      clean &= node->wait_exit(5);
    }
    return clean;
  }
};

std::vector<util::Bytes> inject_frames(const std::vector<bgp::Update>& updates) {
  std::vector<util::Bytes> frames;
  frames.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    proto::InjectFrame frame;
    frame.seq = i;
    frame.update = updates[i];
    frames.push_back(frame.encode());
  }
  return frames;
}

/// Starts the nodes, dials them, prefills the table and waits for the
/// first commitment: the deployment's steady state.
Deployment start_deployment(const RunOptions& options, const std::vector<util::Bytes>& prefill,
                            Tracer& tracer, int index) {
  const std::string dir = options.work_dir + "/" + std::to_string(index);
  std::filesystem::create_directories(dir);
  const std::string classes = std::to_string(kClasses);
  const std::string interval = std::to_string(kCommitIntervalMs);
  Deployment d;
  d.checker = std::make_unique<NodeProcess>(
      options.node_binary,
      std::vector<std::string>{"--role", "checker", "--as", "2", "--neighbor", "5",
                               "--num-classes", classes, "--commit-interval-ms", interval,
                               "--listen", "0", "--port-file", dir + "/checker.port"},
      dir + "/checker.log");
  const std::string checker_port = std::to_string(wait_port(dir + "/checker.port"));
  d.recorder = std::make_unique<NodeProcess>(
      options.node_binary,
      std::vector<std::string>{"--role", "recorder", "--as", "5", "--neighbor", "2",
                               "--num-classes", classes, "--listen", "0", "--port-file",
                               dir + "/recorder.port", "--peer", "2:127.0.0.1:" + checker_port,
                               "--trust", "905", "--commit-interval-ms", interval,
                               "--batch-window-ms", "10"},
      dir + "/recorder.log");
  const std::string recorder_port = std::to_string(wait_port(dir + "/recorder.port"));
  d.proofgen = std::make_unique<NodeProcess>(
      options.node_binary,
      std::vector<std::string>{"--role", "proofgen", "--id", "905", "--neighbor", "2",
                               "--num-classes", classes, "--listen", "0", "--port-file",
                               dir + "/proofgen.port", "--peer", "5:127.0.0.1:" + recorder_port,
                               "--elector", "5", "--commit-interval-ms", interval,
                               "--batch-window-ms", "10"},
      dir + "/proofgen.log");
  const std::string proofgen_port = std::to_string(wait_port(dir + "/proofgen.port"));

  d.client = std::make_unique<Client>(tracer);
  Client& client = *d.client;
  const std::pair<PeerId, std::string> peers[] = {
      {kRecorderId, recorder_port}, {kCheckerId, checker_port}, {kProofgenId, proofgen_port}};
  for (const auto& [id, port] : peers) {
    const nodetool::PeerSpec spec{id, "127.0.0.1", static_cast<std::uint16_t>(std::stoul(port))};
    if (!nodetool::dial_with_retry(client.tcp(), spec)) {
      throw std::runtime_error("cannot dial spider_node " + std::to_string(id));
    }
  }
  client.send(kRecorderId, proto::NodeFrameType::kSubscribeCommits, {});
  for (const util::Bytes& frame : prefill) {
    if (!client.send(kRecorderId, proto::NodeFrameType::kInject, frame)) {
      throw std::runtime_error("prefill injection refused");
    }
  }
  if (!client.barrier(kRecorderId)) throw std::runtime_error("prefill barrier timed out");
  const std::size_t seen = client.commits.size();
  if (!client.wait_for([&] { return client.commits.size() > seen; }, kNotifyTimeout)) {
    throw std::runtime_error("no first commitment");
  }
  return d;
}

}  // namespace

void run_loopback(const RunOptions& options, Report& report) {
  // ---- Inputs: the table (50 routes per UPDATE) and the update stream,
  // one route per UPDATE as the trace has them.
  trace::TraceConfig config;
  config.num_prefixes = kPrefixes;
  config.num_updates = kStreamUpdates;
  config.seed = options.seed;
  config.peer_as = kDriverId;
  std::vector<util::Bytes> prefill, stream;
  {
    trace::RouteViewsTrace trace = trace::generate(config);
    std::vector<bgp::Update> table;
    for (std::size_t first = 0; first < trace.rib_snapshot.size(); first += 50) {
      bgp::Update update;
      const auto begin = trace.rib_snapshot.begin() + static_cast<std::ptrdiff_t>(first);
      update.announced.assign(
          begin, begin + static_cast<std::ptrdiff_t>(
                             std::min<std::size_t>(50, trace.rib_snapshot.size() - first)));
      table.push_back(std::move(update));
    }
    prefill = inject_frames(table);
    std::vector<bgp::Update> updates;
    updates.reserve(trace.events.size());
    for (trace::TraceEvent& event : trace.events) updates.push_back(std::move(event.update));
    stream = inject_frames(updates);
  }
  prepare_reference();

  // ---- Set-up, repeated, and each deployment measured for its share of
  // the run.  The deployments of one run differ in ingest rate (their
  // median burst rates spanned 55k-91k/s in one run on a 4-vCPU host), so
  // measuring only one would make the run's median a draw of that one.
  Tracer tracer(false);
  std::vector<double> setup_seconds, barrier_us, recorder_rss;
  std::vector<double> burst_rates, deployment_cpu_rates, visibility_ms, session_s, first_bundle_s;
  std::vector<double> check_round_s;
  std::vector<double> traced_walls, untraced_walls, references;
  std::uint64_t proof_bytes = 0, proof_items = 0, proof_rounds = 0, alarms = 0;
  std::uint64_t send_stalls = 0;
  double send_stall_s = 0, frames = 0, frame_bytes = 0, measured_wall = 0;
  double cpu[3] = {0, 0, 0};
  std::size_t next = 0;
  std::uint64_t cycle = 0;
  bool broken = false;
  for (int repeat = 0; repeat < kSetupRepeats && !broken; ++repeat) {
    const double setup_start = now_s();
    Deployment d = start_deployment(options, prefill, tracer, repeat);
    setup_seconds.push_back(now_s() - setup_start);
    Client& client = *d.client;

    // Bare round trip at the smallest frame: stats barriers on the idle
    // checker connection.
    for (int i = 0; i < 10; ++i) {
      const double start = now_s();
      if (!client.barrier(kCheckerId)) throw std::runtime_error("idle barrier timed out");
      barrier_us.push_back((now_s() - start) * 1e6);
    }

    const obs::Snapshot before = obs::MetricsRegistry::instance().snapshot();
    const int pids[] = {d.recorder->pid(), d.checker->pid(), d.proofgen->pid()};
    double cpu_before[3];
    for (int i = 0; i < 3; ++i) cpu_before[i] = cpu_s(pids[i]);
    const double window_start = now_s();
    const double window = options.seconds / kSetupRepeats;
    double window_mirrored = 0, window_cpu = 0;
    for (; !broken && now_s() - window_start < window; ++cycle) {
      const bool traced = options.trace && cycle % 2 == 0;
      tracer.set_enabled(traced);
      tracer.set_op(cycle);
      const double cycle_start = now_s();
      auto send_stream = [&](std::size_t count) {
        for (std::size_t end = next + count; next < end; ++next) {
          report.attempt();
          if (!client.send(kRecorderId, proto::NodeFrameType::kInject,
                           stream[next % stream.size()])) {
            report.fail("inject frame refused after retries");
            return false;
          }
        }
        return true;
      };
      auto barrier = [&]() {
        report.attempt();
        auto stats = client.barrier(kRecorderId);
        if (!stats) report.fail("stats barrier timed out");
        return stats;
      };

      // Ingest bursts, each between two barriers and each right after a
      // reference run.
      for (int burst = 0; burst < kBurstsPerCycle && !broken; ++burst) {
        references.push_back(reference_s());
        const auto start_stats = barrier();
        const double cpu_start = cpu_s(d.recorder->pid());
        const double burst_start = now_s();
        const bool sent = start_stats && send_stream(kBurstRoutes);
        const auto end_stats = sent ? barrier() : std::nullopt;
        if (!end_stats) {
          broken = true;
          break;
        }
        const auto mirrored =
            static_cast<double>(end_stats->updates_mirrored - start_stats->updates_mirrored);
        burst_rates.push_back(mirrored / (now_s() - burst_start));
        window_mirrored += mirrored;
        window_cpu +=
            at_reference_speed(cpu_s(d.recorder->pid()) - cpu_start, references.back());
      }
      if (broken) break;

      // Commit visibility: from the barrier that marks a small burst
      // ingested to the next commitment notification.
      for (int round = 0; round < kVisibilityRounds && !broken; ++round) {
        if (!send_stream(kVisibilityRoutes) || !barrier()) {
          broken = true;
          break;
        }
        const double ingested = now_s();
        const std::size_t seen = client.commits.size();
        report.attempt();
        if (!client.wait_for([&] { return client.commits.size() > seen; }, kNotifyTimeout)) {
          report.fail("commit notification timed out");
          broken = true;
          break;
        }
        visibility_ms.push_back((client.commit_arrivals[seen] - ingested) * 1e3);
      }
      if (broken) break;

      // Pipelined verification of the newest commitment.
      const proto::Time commit_time = client.commits.back();
      const std::size_t bundles_before = client.bundles.size();
      const std::size_t results_before = client.results.size();
      std::vector<double> check_sent(kVerifyRounds, 0);
      std::uint32_t requested = 0, relayed = 0;
      auto request = [&]() {
        proto::ProofRequestFrame frame;
        frame.elector = kRecorderId;
        frame.commit_time = commit_time;
        frame.consumer = kCheckerId;
        frame.round = requested++;
        frame.round_count = kVerifyRounds;
        report.attempt();
        if (client.send(kProofgenId, proto::NodeFrameType::kProofRequest, frame.encode())) {
          return true;
        }
        report.fail("proof request refused after retries");
        return false;
      };
      const double session_start = now_s();
      bool ok = true;
      while (ok && requested < std::min(kVerifyRounds, kVerifyWindow)) ok = request();
      while (ok && client.results.size() - results_before < kVerifyRounds) {
        while (ok && bundles_before + relayed < client.bundles.size()) {
          check_sent[relayed] = now_s();
          report.attempt();
          if (!client.send(kCheckerId, proto::NodeFrameType::kCheckRequest,
                           client.bundles[bundles_before + relayed])) {
            report.fail("check request refused after retries");
            ok = false;
            break;
          }
          ++relayed;
          if (requested < kVerifyRounds) ok = request();
        }
        if (!ok) break;
        const std::size_t have_bundles = client.bundles.size();
        const std::size_t have_results = client.results.size();
        if (!client.wait_for(
                [&] {
                  return client.bundles.size() > have_bundles ||
                         client.results.size() > have_results;
                },
                kVerifyTimeout)) {
          report.fail("verification round timed out");
          ok = false;
        }
      }
      if (!ok) break;
      const double cycle_end = now_s();
      session_s.push_back(cycle_end - session_start);
      first_bundle_s.push_back(client.bundle_arrivals[bundles_before] - session_start);
      for (std::uint32_t round = 0; round < kVerifyRounds; ++round) {
        check_round_s.push_back(client.result_arrivals[results_before + round] - check_sent[round]);
        const proto::CheckResultFrame& result = client.results[results_before + round];
        const proto::ProofBundleFrame bundle =
            proto::ProofBundleFrame::decode(client.bundles[bundles_before + round]);
        if (result.ok == 0 || bundle.root_matches == 0) {
          report.fail("DIRTY check result");
          report.wrong("honest verification round not clean: " + result.detail);
        }
        proof_bytes += bundle.producer_proofs.size() + bundle.consumer_proofs.size();
        proof_items += proto::ProducerProofs::decode(bundle.producer_proofs).items.size() +
                       proto::ConsumerProofs::decode(bundle.consumer_proofs).items.size();
        ++proof_rounds;
      }
      (traced ? traced_walls : untraced_walls).push_back(cycle_end - cycle_start);
    }
    tracer.set_enabled(false);
    measured_wall += now_s() - window_start;
    // The deployment's rate over all its bursts: one repeat of the run.
    deployment_cpu_rates.push_back(ratio(window_mirrored, window_cpu));
    const obs::Snapshot after = obs::MetricsRegistry::instance().snapshot();
    const Counters delta(before, after);
    frames += delta.count("transport/frames_out");
    frame_bytes += delta.count("transport/bytes_out");
    for (int i = 0; i < 3; ++i) cpu[i] += cpu_s(pids[i]) - cpu_before[i];
    recorder_rss.push_back(peak_rss_mb(d.recorder->pid()));
    send_stalls += client.send_stalls;
    send_stall_s += client.send_stall_s;
    std::uint64_t deployment_alarms = 0;
    for (PeerId peer : {kRecorderId, kCheckerId}) {
      report.attempt();
      if (auto stats = client.barrier(peer)) {
        deployment_alarms += stats->alarms;
      } else {
        report.fail("final stats barrier timed out");
      }
    }
    for (std::uint64_t i = 0; i < deployment_alarms; ++i) report.fail("recorder alarm");
    alarms += deployment_alarms;
    if (!d.shut_down()) report.fail("a spider_node did not exit cleanly");
  }
  std::filesystem::remove_all(options.work_dir);

  const std::size_t cycles = session_s.size();
  if (session_s.empty()) report.wrong("no cycle was measured");
  const double proof_bytes_per_prefix =
      ratio(static_cast<double>(proof_bytes), static_cast<double>(proof_items));
  report.e2e("setup_s", median(setup_seconds), setup_seconds.size());
  report.e2e("ops_per_cpu_s", median(deployment_cpu_rates), deployment_cpu_rates.size());
  report.e2e("op_ms_p50", median(visibility_ms), visibility_ms.size());
  report.e2e("bytes_per_op", proof_bytes_per_prefix, proof_items);
  report.e2e("peak_rss_mb", median(recorder_rss), recorder_rss.size());
  report.note("ingest_updates_per_s", median(burst_rates), "1/s", burst_rates.size());
  report.note("reference_ms_p50", median(references) * 1e3, "ms", references.size());
  report.note("commit_visibility_ms_p50", median(visibility_ms), "ms", visibility_ms.size());
  if (auto tail = tail_percentile(visibility_ms.size())) {
    report.note("commit_visibility_ms_p" + percentile_label(*tail),
                percentile(visibility_ms, *tail), "ms", visibility_ms.size());
  }
  report.note("verify_session_s_p50", median(session_s), "s", session_s.size());
  report.note("proof_bytes_per_prefix", proof_bytes_per_prefix, "B", proof_items);

  if (!options.trace) return;

  const double n = static_cast<double>(cycles);
  report.layer("transport.frames_out", ratio(frames, n), cycles);
  report.layer("transport.bytes_per_frame", ratio(frame_bytes, frames),
               static_cast<std::size_t>(frames));
  report.layer("transport.send_stalls", ratio(static_cast<double>(send_stalls), n), cycles);
  report.layer("transport.send_stall_s", ratio(send_stall_s, n), cycles);
  report.layer("transport.barrier_rtt_us_p50", median(barrier_us), barrier_us.size());
  report.layer("loopback.recorder_cpu_s", ratio(cpu[0], n), cycles);
  report.layer("loopback.checker_cpu_s", ratio(cpu[1], n), cycles);
  report.layer("loopback.proofgen_cpu_s", ratio(cpu[2], n), cycles);
  report.layer("loopback.recorder_busy_ratio", ratio(cpu[0], measured_wall), cycles);
  report.layer("loopback.first_bundle_s", median(first_bundle_s), first_bundle_s.size());
  report.layer("loopback.check_round_s_p50", median(check_round_s), check_round_s.size());
  report.layer("verify.session_s_p50", median(session_s), session_s.size());
  report.layer("verify.challenge_round_trips", ratio(static_cast<double>(proof_rounds), n),
               cycles);
  report.layer("verify.bytes_shipped", ratio(static_cast<double>(proof_bytes), n), cycles);
  report.layer("spider.recorder.alarms", static_cast<double>(alarms), 2);
  double traced_wall = 0;
  for (double wall : traced_walls) traced_wall += wall;
  report.layer("trace.span_coverage", span_coverage(tracer.spans(), traced_wall),
               traced_walls.size());
  report.layer("trace.overhead_ratio", ratio(median(traced_walls), median(untraced_walls)),
               cycles);
}

}  // namespace perfbench
