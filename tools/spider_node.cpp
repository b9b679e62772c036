// spider_node — one SPIDeR node as an OS process over loopback TCP.
//
// Three roles, matching the paper's per-AS components (§6.1):
//
//   --role recorder   Hosts a BGP speaker plus the AS's recorder.  Trace
//                     updates arrive as kInject frames (the RouteViews
//                     peer of §7.1, delivered over TCP instead of a sim
//                     link); recorder-to-recorder traffic (signed batches,
//                     ACKs, commitments) flows to peered spider_nodes as
//                     kEnvelope frames.  Serves its message log to
//                     explicitly trusted peers (its own proof generator)
//                     and pushes kCommitNotify to subscribers.
//
//   --role checker    Hosts the neighbor AS's recorder (started without
//                     commitments), mirroring what the elector sends it;
//                     on kCheckRequest validates a proof bundle against
//                     the commitment it received (§6.1 checker).
//
//   --role proofgen   The elector's proof generator as its own process
//                     (§6.5): fetches the recorder's log over TCP, rebuilds
//                     and verifies it, and answers kProofRequest with proofs
//                     replayed from that log alone — no recorder runs here.
//
// The protocol objects are the same classes the deterministic netsim tests
// run; only the transport differs (TcpTransport vs NetsimTransport).
//
//   spider_node --role recorder --as 5 --listen 47701 --neighbor 2
//       --peer 2:127.0.0.1:47702 --trust 905 --commit-interval-ms 250
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/speaker.hpp"
#include "node_common.hpp"
#include "spider/proof_generator.hpp"
#include "util/serde.hpp"
#include "verify/session.hpp"

using namespace spider;
using nodetool::NodeEndpoint;
using nodetool::PeerSpec;
using transport::PeerId;

namespace {

struct Options {
  std::string role;
  std::uint32_t id = 0;  // AS number for recorder/checker; plain id for proofgen
  std::uint16_t listen = 0;
  std::string port_file;
  std::vector<PeerSpec> peers;
  std::vector<std::uint32_t> neighbors;  // the hosted recorder's SPIDeR neighbors
  std::set<PeerId> trusted_log_peers;
  std::uint32_t elector = 0;  // proofgen: whose log to fetch
  std::uint32_t num_classes = 50;
  std::int64_t commit_interval = 60'000'000;
  std::int64_t batch_window = 10'000;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --role recorder|checker|proofgen --as N --listen PORT\n"
               "          [--port-file FILE] [--peer ID:HOST:PORT]... [--neighbor AS]...\n"
               "          [--trust PEERID]... [--elector AS] [--num-classes N]\n"
               "          [--commit-interval-ms N] [--batch-window-ms N]\n",
               argv0);
  return 2;
}

/// Elector `asn`'s parameters under the command line: its recorder
/// configuration and the paper's §7.2 total-order promise to every
/// neighbor.  The hosted recorder and the proof generator replaying its
/// log both take theirs from here, so they cannot drift.
proto::ElectorParams elector_params(const Options& opt, std::uint32_t asn) {
  proto::ElectorParams params;
  params.config.asn = asn;
  params.config.num_classes = opt.num_classes;
  params.config.commit_interval = opt.commit_interval;
  params.config.batch_window = opt.batch_window;
  for (std::uint32_t neighbor : opt.neighbors) {
    params.promises.emplace(neighbor, core::Promise::total_order(opt.num_classes));
  }
  return params;
}

/// Everything a recorder-hosting role owns; the checker role reuses it
/// with commitments disabled.
struct HostedRecorder {
  netsim::Simulator sim;
  netsim::NodeId speaker_node = 0;
  std::unique_ptr<bgp::Speaker> speaker;
  core::KeyRegistry keys;
  std::unique_ptr<crypto::HashSigner> signer;
  std::unique_ptr<proto::Recorder> recorder;

  HostedRecorder(NodeEndpoint& endpoint, const Options& opt) {
    speaker = std::make_unique<bgp::Speaker>(sim, opt.id, bgp::Policy{});
    speaker_node = sim.add_node(*speaker, "bgp-as" + std::to_string(opt.id));

    std::set<std::uint32_t> key_ases{opt.id};
    for (std::uint32_t neighbor : opt.neighbors) key_ases.insert(neighbor);
    nodetool::add_keys(keys, key_ases);
    signer = std::make_unique<crypto::HashSigner>(nodetool::key_of(opt.id));

    proto::ElectorParams params = elector_params(opt, opt.id);
    // Live ingest leans on dirty-prefix tracking: a periodic commit costs
    // O(changed prefixes), not O(table), so commitments stay off the
    // ingest path.  The proof generator rebuilds the MTT in full — the
    // incremental/full differential is already covered by
    // test_mtt_incremental, and root_matches re-checks it here.
    params.config.incremental_commits = true;
    recorder =
        std::make_unique<proto::Recorder>(endpoint, params.config, *signer, keys, *speaker);

    for (std::uint32_t neighbor : opt.neighbors) {
      // Observed-only: the export pipeline (policy, adj-rib-out, mirror
      // hooks) runs, but nothing is encoded into the local sim — the real
      // neighbor router lives in another process.
      speaker->add_observed_neighbor(neighbor);
      recorder->add_neighbor(neighbor);
      recorder->set_promise(neighbor, params.promises.at(neighbor));
    }

    endpoint.set_stats_source([this] {
      proto::StatsFrame frame;
      frame.updates_mirrored = recorder->updates_mirrored();
      frame.commitments_made = recorder->commitments_made();
      frame.alarms = recorder->alarms().size();
      frame.log_entries = recorder->log().entries().size();
      return frame;
    });
  }
};

// --------------------------------------------------------------- recorder

int run_recorder(transport::TcpTransport& tcp, NodeEndpoint& endpoint, const Options& opt) {
  HostedRecorder host(endpoint, opt);
  std::set<PeerId> commit_subscribers;
  std::uint64_t injects_since_drain = 0;
  std::vector<proto::Time> checkpoint_times;

  host.recorder->set_commitment_hook([&](const proto::CommitmentRecord& record) {
    // Public commitment only — the record's seed never leaves this AS
    // except through the trusted log channel to its own proof generator.
    proto::SpiderCommit commit;
    commit.timestamp = record.timestamp;
    commit.from_as = opt.id;
    commit.num_classes = record.num_classes;
    commit.root = record.root;
    const util::Bytes body = commit.encode();
    for (PeerId subscriber : commit_subscribers) {
      endpoint.send_control(subscriber, proto::NodeFrameType::kCommitNotify, body);
    }

    // §6.5 retention: checkpoint the committed round and keep two rounds
    // of history.  A proof request for this commitment — or the previous
    // one, possibly in flight — replays from the surviving window, while
    // older entries are pruned so the log stops growing with ingest.
    host.recorder->make_checkpoint();
    checkpoint_times.push_back(host.recorder->log().checkpoints().back().timestamp);
    if (checkpoint_times.size() >= 3) {
      host.recorder->enforce_retention(checkpoint_times[checkpoint_times.size() - 3]);
      checkpoint_times.erase(checkpoint_times.begin(), checkpoint_times.end() - 3);
    }
  });

  endpoint.set_control_handler([&](PeerId from, const proto::NodeFrame& frame) {
    switch (frame.type) {
      case proto::NodeFrameType::kInject: {
        proto::InjectFrame inject = proto::InjectFrame::decode(frame.body);
        // The sender's peer id doubles as the trace-peer AS number: an
        // unregistered speaker neighbor, i.e. a non-SPIDeR peer (§6.7).
        // The observer hooks fire synchronously inside inject(); any
        // queued sim events (batch-window timers) are drained in batches
        // so their cost stays off the per-update path.
        host.speaker->inject(from, inject.update);
        if (++injects_since_drain >= 256) {
          host.sim.run_until(host.sim.now() + 2);
          injects_since_drain = 0;
        }
        break;
      }
      case proto::NodeFrameType::kSubscribeCommits:
        commit_subscribers.insert(from);
        break;
      case proto::NodeFrameType::kLogRequest: {
        if (opt.trusted_log_peers.count(from) == 0) {
          std::fprintf(stderr, "refusing log request from untrusted peer %u\n", from);
          break;
        }
        proto::stream_log(host.recorder->log(), [&](const proto::LogSegmentFrame& segment) {
          endpoint.send_control(from, proto::NodeFrameType::kLogSegment, segment.encode());
        });
        endpoint.send_control(from, proto::NodeFrameType::kLogEnd, {});
        break;
      }
      default:
        std::fprintf(stderr, "recorder: unexpected frame type %u from peer %u\n",
                     static_cast<unsigned>(frame.type), from);
    }
  });

  host.recorder->start(/*schedule_commitments=*/true);
  tcp.run();
  std::printf("spider_node recorder as=%u: %llu updates mirrored, %llu commitments, %zu alarms\n",
              opt.id, static_cast<unsigned long long>(host.recorder->updates_mirrored()),
              static_cast<unsigned long long>(host.recorder->commitments_made()),
              host.recorder->alarms().size());
  return 0;
}

// ---------------------------------------------------------------- checker

int run_checker(transport::TcpTransport& tcp, NodeEndpoint& endpoint, const Options& opt) {
  HostedRecorder host(endpoint, opt);
  // The promise the elector made to this checker's AS; the smoke
  // deployment uses the paper's §7.2 configuration everywhere.
  const core::Promise promise = core::Promise::total_order(opt.num_classes);

  // What the rounds of one commitment share: the checker's view (built
  // once, not once per round) and a memoizing verifier (the rounds' bit
  // proofs share interior fold chains).  The verifier keys its caches by
  // root, which keeps equivocating electors apart.  Bounded FIFO, same
  // depth as log retention.
  struct CheckedCommitment {
    verify::CheckerView view;
    verify::CachedProofVerifier verifier{/*use_cache=*/true};
  };
  using CheckedKey = std::pair<std::uint32_t, proto::Time>;
  std::map<CheckedKey, CheckedCommitment> checked;
  std::deque<CheckedKey> checked_fifo;
  constexpr std::size_t kCheckedCapacity = 4;
  // Null when no commitment for that time was received; that is not
  // remembered, since the commitment may still arrive.
  auto checked_for = [&](std::uint32_t elector, proto::Time commit_time) -> CheckedCommitment* {
    const CheckedKey key{elector, commit_time};
    auto it = checked.find(key);
    if (it != checked.end()) return &it->second;
    auto view = verify::checker_view(*host.recorder, elector, commit_time, &promise);
    if (!view) return nullptr;
    while (checked.size() >= kCheckedCapacity) {
      checked.erase(checked_fifo.front());
      checked_fifo.pop_front();
    }
    checked_fifo.push_back(key);
    return &checked.emplace(key, CheckedCommitment{std::move(*view)}).first->second;
  };

  endpoint.set_control_handler([&](PeerId from, const proto::NodeFrame& frame) {
    switch (frame.type) {
      case proto::NodeFrameType::kCheckRequest: {
        const proto::ProofBundleFrame bundle = proto::ProofBundleFrame::decode(frame.body);
        proto::CheckResultFrame result;
        result.root_matches = bundle.root_matches;
        if (CheckedCommitment* commitment = checked_for(bundle.elector, bundle.commit_time)) {
          const auto found =
              verify::check_bundle(commitment->view, bundle, commitment->verifier.verify_fn());
          result.producer_ok = found.producer ? 0 : 1;
          result.consumer_ok = found.consumer ? 0 : 1;
          result.ok = (result.producer_ok && result.consumer_ok && bundle.root_matches) ? 1 : 0;
          if (found.producer) result.detail += "producer: " + found.producer->detail + "; ";
          if (found.consumer) result.detail += "consumer: " + found.consumer->detail + "; ";
          if (result.ok) result.detail = "clean";
        } else {
          result.detail = "no commitment received for this round";
        }
        endpoint.send_control(from, proto::NodeFrameType::kCheckResult, result.encode());
        break;
      }
      default:
        std::fprintf(stderr, "checker: unexpected frame type %u from peer %u\n",
                     static_cast<unsigned>(frame.type), from);
    }
  });

  // The checker never commits, so nothing else prunes its mirror log;
  // retire rounds on the elector's commitment cadence.  Its mirrored
  // state (what the checks read) lives outside the log and is unaffected.
  std::function<void()> checker_retention = [&] {
    host.recorder->enforce_retention(tcp.now() - 2 * opt.commit_interval);
    tcp.schedule_in(opt.commit_interval, checker_retention);
  };
  tcp.schedule_in(opt.commit_interval, checker_retention);

  host.recorder->start(/*schedule_commitments=*/false);
  tcp.run();
  verify::SessionStats cache_stats;
  for (const auto& [key, commitment] : checked) commitment.verifier.drain_into(cache_stats);
  std::printf("spider_node checker as=%u: %llu updates mirrored, %zu alarms, "
              "%llu proof-path cache hits / %llu misses (%llu bytes deduped)\n",
              opt.id, static_cast<unsigned long long>(host.recorder->updates_mirrored()),
              host.recorder->alarms().size(),
              static_cast<unsigned long long>(cache_stats.cache_hits),
              static_cast<unsigned long long>(cache_stats.cache_misses),
              static_cast<unsigned long long>(cache_stats.bytes_deduped));
  return 0;
}

// --------------------------------------------------------------- proofgen

int run_proofgen(transport::TcpTransport& tcp, NodeEndpoint& endpoint, const Options& opt) {
  // One reconstructed commitment kept live for reuse: a session's rounds
  // all ask for the same (elector, commit_time), and only the first pays
  // the log transfer and checkpoint+replay.
  struct ReconEntry {
    proto::MessageLog log;
    /// Proves from `log`; nullopt when the transfer or the reconstruction
    /// failed, and such requests get root_matches = 0 and no proofs.
    std::optional<verify::Prover> prover;
  };
  using ReconKey = std::pair<std::uint32_t, proto::Time>;
  std::map<ReconKey, ReconEntry> recon_cache;
  std::deque<ReconKey> recon_fifo;  // front = oldest; bound matches §6.5 retention
  constexpr std::size_t kReconCapacity = 2;
  std::uint64_t recon_builds = 0, requests_answered = 0;

  // Requests wait here in arrival order; at most one log transfer is in
  // flight at a time (overlapping requests queue instead of dropping).
  struct QueuedRequest {
    PeerId requester = 0;
    proto::ProofRequestFrame request;
  };
  std::deque<QueuedRequest> waiting;
  std::optional<proto::LogTransfer> transfer;

  // Answers every queued request the cache can serve, then kicks off one
  // log transfer for the first one it cannot.
  std::function<void()> service = [&] {
    while (!waiting.empty()) {
      const QueuedRequest& queued = waiting.front();
      auto it = recon_cache.find({queued.request.elector, queued.request.commit_time});
      if (it == recon_cache.end()) break;
      const verify::Prover* prover = it->second.prover ? &*it->second.prover : nullptr;
      endpoint.send_control(queued.requester, proto::NodeFrameType::kProofBundle,
                            verify::prove_request(prover, queued.request).encode());
      ++requests_answered;
      waiting.pop_front();
    }
    if (!waiting.empty() && !transfer) {
      transfer.emplace();
      endpoint.send_control(waiting.front().request.elector, proto::NodeFrameType::kLogRequest,
                            {});
    }
  };

  auto finish_transfer = [&] {
    const proto::LogTransfer done = std::move(*transfer);
    transfer.reset();
    if (waiting.empty()) return;  // requester vanished mid-transfer
    const proto::ProofRequestFrame& request = waiting.front().request;

    const ReconKey key{request.elector, request.commit_time};
    while (recon_cache.size() >= kReconCapacity) {
      recon_cache.erase(recon_fifo.front());
      recon_fifo.pop_front();
    }
    ReconEntry& entry = recon_cache.try_emplace(key).first->second;
    recon_fifo.push_back(key);
    // Never prove from a log that fails to decode or to verify (§6.5): the
    // entry keeps no prover, so requests get root_matches = 0.
    try {
      entry.log = done.rebuild();
      entry.prover.emplace(entry.log, elector_params(opt, request.elector), request.commit_time,
                           /*threads=*/1, /*memoize=*/true);
    } catch (const util::DecodeError& e) {
      std::fprintf(stderr, "proofgen: rejecting transferred log: %s\n", e.what());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "proofgen: reconstruction failed: %s\n", e.what());
    }
    ++recon_builds;
    service();
  };

  endpoint.set_control_handler([&](PeerId from, const proto::NodeFrame& frame) {
    switch (frame.type) {
      case proto::NodeFrameType::kProofRequest: {
        QueuedRequest queued;
        queued.requester = from;
        queued.request = proto::ProofRequestFrame::decode(frame.body);
        waiting.push_back(std::move(queued));
        service();
        break;
      }
      case proto::NodeFrameType::kLogSegment:
        if (transfer) transfer->add(proto::LogSegmentFrame::decode(frame.body));
        break;
      case proto::NodeFrameType::kLogEnd:
        if (transfer) finish_transfer();
        break;
      default:
        std::fprintf(stderr, "proofgen: unexpected frame type %u from peer %u\n",
                     static_cast<unsigned>(frame.type), from);
    }
  });

  tcp.run();
  // Every answered request either triggered a reconstruction or reused a
  // cached one, so hits are the difference.
  std::printf("spider_node proofgen id=%u: %llu requests answered, %llu reconstructions, "
              "%llu recon-cache hits\n",
              opt.id, static_cast<unsigned long long>(requests_answered),
              static_cast<unsigned long long>(recon_builds),
              static_cast<unsigned long long>(
                  requests_answered > recon_builds ? requests_answered - recon_builds : 0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (arg == "--role") {
      opt.role = next();
    } else if (arg == "--as" || arg == "--id") {
      opt.id = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--listen") {
      opt.listen = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--port-file") {
      opt.port_file = next();
    } else if (arg == "--peer") {
      opt.peers.push_back(nodetool::parse_peer_spec(next()));
    } else if (arg == "--neighbor") {
      opt.neighbors.push_back(static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--trust") {
      opt.trusted_log_peers.insert(static_cast<PeerId>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--elector") {
      opt.elector = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--num-classes") {
      opt.num_classes = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--commit-interval-ms") {
      opt.commit_interval = std::strtol(next(), nullptr, 10) * 1000;
    } else if (arg == "--batch-window-ms") {
      opt.batch_window = std::strtol(next(), nullptr, 10) * 1000;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.id == 0 ||
      (opt.role != "recorder" && opt.role != "checker" && opt.role != "proofgen")) {
    return usage(argv[0]);
  }

  signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IOLBF, 0);  // keep progress visible under redirection
  transport::TcpTransport tcp(opt.id);
  NodeEndpoint endpoint(tcp);

  const std::uint16_t port = tcp.listen_on(opt.listen);
  std::printf("spider_node: role=%s id=%u listening on %u\n", opt.role.c_str(), opt.id, port);
  std::fflush(stdout);
  if (!opt.port_file.empty()) {
    std::FILE* f = std::fopen(opt.port_file.c_str(), "w");
    if (f) {
      std::fprintf(f, "%u\n", port);
      std::fclose(f);
    }
  }
  for (const PeerSpec& peer : opt.peers) {
    if (!nodetool::dial_with_retry(tcp, peer)) {
      std::fprintf(stderr, "cannot reach peer %u at %s:%u\n", peer.id, peer.host.c_str(),
                   peer.port);
      return 1;
    }
  }

  if (opt.role == "recorder") return run_recorder(tcp, endpoint, opt);
  if (opt.role == "checker") return run_checker(tcp, endpoint, opt);
  return run_proofgen(tcp, endpoint, opt);
}
