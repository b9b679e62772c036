// The verification-session engine.
//
// A SPIDeR verification session (§4.5 / §6.1) is a sequence of
// challenge/response rounds between the elector's proof generator and its
// neighbors' checkers.  A round is one bundle per (neighbor, round) that
// carries the proofs of both roles; a bgp::PrefixFilter says which
// prefixes it covers, Prover::round() proves under it, and check_round()
// checks under it.  The socket nodes (tools/spider_node) run the same two
// calls through prove_request() and check_bundle().  run_session
// schedules the rounds of one commitment as:
//
//   * chunks — each neighbor's sorted export and import keys are cut into
//     runs of `round_prefixes`; a round covers the half-open key range
//     from its chunk's first key to the next chunk's, so the rounds
//     partition the prefix space and per-round detections concatenate to
//     exactly the sequential first-detection;
//   * a pipeline — proof generation and bundle signing run on a
//     `jobs`-thread pool with at most `window * jobs` rounds in flight,
//     while the main thread consumes finished rounds in order and runs
//     the checkers, so proving round k+1 overlaps checking round k;
//   * a ProofPathCache — interior proof subpaths are verified once per
//     (root, position, label); repeat prefixes across neighbors and roles
//     short-circuit at the first cached level (often the prefix node
//     itself, skipping the entire fold);
//   * batched signatures — under the RSA scheme with a window above 1,
//     pending round bundles are signature-checked through
//     crypto::rsa_verify_batch, amortizing the Montgomery context setup
//     across a batch; results stay per bundle, so one bad signature
//     taints exactly its own round.
//
// The sequential configuration (the default-constructed SessionConfig)
// runs one round per neighbor on one worker, no cache, scalar signature
// checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "spider/checker.hpp"
#include "spider/deployment.hpp"
#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "spider/verification.hpp"
#include "verify/proof_path_cache.hpp"

namespace spider::verify {

struct SessionConfig {
  /// Worker threads generating and signing round bundles.  1 = serial.
  unsigned jobs = 1;
  /// Bounded in-flight window: at most `window * jobs` rounds are being
  /// generated ahead of the checker; also the signature-batch flush size.
  unsigned window = 1;
  /// Prefixes per challenge round.  0 = one round per neighbor covering
  /// every prefix.
  std::size_t round_prefixes = 0;
  /// Memoize interior proof subpaths (ProofPathCache) and proof material
  /// (MttProofMemo) across rounds.
  bool use_cache = false;
};

/// The full-pipeline configuration: `jobs` worker threads (0 = hardware
/// concurrency), a 4-round window, 256-prefix rounds and the caches.
SessionConfig pipelined_config(unsigned jobs = 0);

struct SessionStats {
  // Checker-side digest work.
  std::uint64_t digest_ops = 0;        // leaf hashes + prefix labels + folds run
  std::uint64_t digest_ops_saved = 0;  // folds skipped via cache hits
  std::uint64_t proofs_checked = 0;
  std::uint64_t proofs_accepted = 0;
  // Subpath cache, proof granularity (one hit/miss per proof).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  // Bytes: shipped = proof bundles as encoded on the wire; deduped = the
  // sibling bytes whose re-verification a cache hit made redundant.
  std::uint64_t bytes_shipped = 0;
  std::uint64_t bytes_deduped = 0;
  // Session shape.
  std::uint64_t challenge_round_trips = 0;  // proof rounds + RE-ANNOUNCE requests
  std::uint64_t signatures_verified = 0;
  std::uint64_t signature_batches = 0;  // rsa_verify_batch flushes
  std::uint64_t bad_signatures = 0;
  // Wall clock: session = the challenge/response part; reconstruction is
  // the elector's replay prep and is identical in every configuration.
  double session_seconds = 0;
  double reconstruct_seconds = 0;
  double total_seconds = 0;
};

struct SessionResult {
  proto::VerificationReport report;
  SessionStats stats;
};

/// What a neighbor's checker holds when the elector's proofs arrive.
struct CheckerView {
  proto::SpiderCommit commit;  // the elector's commitment it received
  bgp::AsNumber elector = 0;
  bgp::AsNumber self = 0;
  /// Its exports to the elector, each with the values in force over the
  /// loose-sync window (the mirror holds one per prefix).
  std::map<bgp::Prefix, std::vector<bgp::Route>> window;
  /// Its imports from the elector.
  std::map<bgp::Prefix, bgp::Route> imports;
  /// The elector's promise to it; null = no consumer check.
  const core::Promise* promise = nullptr;
  const core::Classifier* classifier = nullptr;
};

/// `checker`'s view of `elector`'s commitment at `commit_time`, restricted
/// to the §7.3 subtree `within`; nullopt when no commitment for that time
/// was received.  `checker` and `promise` must outlive the view.
std::optional<CheckerView> checker_view(const proto::Recorder& checker, bgp::AsNumber elector,
                                        proto::Time commit_time, const core::Promise* promise,
                                        const std::optional<bgp::Prefix>& within = std::nullopt);

/// One round's verdicts, per role.
struct RoundDetections {
  std::optional<core::Detection> producer;
  std::optional<core::Detection> consumer;
};

/// Checks one challenge round: the elector's producer and consumer proofs
/// for the prefixes `filter` accepts (empty = all), against `view`
/// restricted to the same prefixes — so a prefix missing from its own
/// round is flagged as withheld.
RoundDetections check_round(const CheckerView& view, const proto::ProducerProofs& producer,
                            const proto::ConsumerProofs& consumer,
                            const bgp::PrefixFilter& filter = {},
                            const proto::ProofVerifyFn& verify = core::Mtt::verify);

/// The socket checker's round: decodes both proof sets of `frame` and
/// checks them under proto::proof_round_filter.  A set that does not
/// decode is its role's kMalformedMessage detection against the elector;
/// the other role is still checked.
RoundDetections check_bundle(const CheckerView& view, const proto::ProofBundleFrame& frame,
                             const proto::ProofVerifyFn& verify = core::Mtt::verify);

/// The elector's side of a round: reconstructs the commitment at
/// `commit_time` from `log` alone (§6.5) once, then proves rounds against
/// it, from several threads at once if need be.  `log` must outlive it;
/// `memoize` caches proof material across rounds.  Throws
/// std::invalid_argument when no commitment or checkpoint covers T.
class Prover {
 public:
  Prover(const proto::MessageLog& log, proto::ElectorParams params, proto::Time commit_time,
         unsigned threads = 1, bool memoize = false);
  Prover(proto::MessageLog&&, proto::ElectorParams, proto::Time, unsigned = 1,
         bool = false) = delete;  // would dangle
  /// Proves from `elector`'s log under its current parameters.
  explicit Prover(const proto::Recorder& elector, proto::Time commit_time, unsigned threads = 1,
                  bool memoize = false)
      : Prover(elector.log(),
               {elector.config(), elector.promises(), elector.faults().ignore_inputs},
               commit_time, threads, memoize) {}

  bool root_matches() const { return recon_.root_matches; }
  double reconstruct_seconds() const { return recon_.reconstruct_seconds; }

  /// One round's two proof sets, and the frame that ships their encodings.
  struct Round {
    proto::ProducerProofs producer;
    proto::ConsumerProofs consumer;
    proto::ProofBundleFrame frame;
  };

  /// Proves both roles for `neighbor` over the prefixes `filter` accepts
  /// (empty = all); `round` and `round_count` are copied into the frame.
  Round round(bgp::AsNumber neighbor, std::uint32_t round, std::uint32_t round_count,
              const bgp::PrefixFilter& filter) const;

  /// See ProofGenerator::select_re_announcements.
  std::vector<proto::SpiderAnnounce> select_re_announcements(
      bgp::AsNumber consumer, const std::vector<proto::ReAnnounceSet>& sets) const {
    return generator_.select_re_announcements(recon_, consumer, sets);
  }

 private:
  bgp::AsNumber elector_;
  proto::ProofGenerator generator_;
  proto::ProofGenerator::Reconstruction recon_;
  mutable core::MttProofMemo memo_;  // locks internally
  bool memoize_;
};

/// The socket proof generator's round: `request`'s round under
/// proto::proof_round_filter.  A null `prover` (the log failed to transfer,
/// verify or cover T) answers root_matches = 0 with empty proof sets.
proto::ProofBundleFrame prove_request(const Prover* prover,
                                      const proto::ProofRequestFrame& request);

/// Runs a verification session for `elector`'s commitment at
/// `commit_time`.  Identical verdicts, evidence and detections to the
/// sequential flow (SessionConfig{}) for every configuration; only cost and
/// wire layout change.  `extended` runs the §6.6 RE-ANNOUNCE protocol;
/// `within` restricts to a prefix subtree (§7.3).
SessionResult run_session(proto::Fig5Deployment& deploy, bgp::AsNumber elector,
                          proto::Time commit_time, const SessionConfig& config,
                          bool extended = false,
                          std::optional<bgp::Prefix> within = std::nullopt);

/// The memoizing bit-proof verifier the engine plugs into Checker.
/// Accept/reject agrees with core::Mtt::verify on every proof whose
/// subpaths were honestly cached (the cache only ever holds pairs from
/// fully verified proofs).  The socket checker keeps one per commitment.
class CachedProofVerifier {
 public:
  /// `cache_capacity`: cached (position, label) pairs kept per root.
  explicit CachedProofVerifier(bool use_cache, std::size_t cache_capacity = 1 << 16)
      : use_cache_(use_cache), cache_capacity_(cache_capacity) {}

  /// Drop-in for core::Mtt::verify.  Always recomputes the revealed leaf
  /// openings and the prefix label (they are the claim under test); only
  /// the interior fold chain consults the cache.
  bool verify(const Digest20& root, std::uint32_t num_classes,
              const core::MttPrefixProof& proof);

  /// verify() on this verifier, as check_round and check_bundle take it.
  proto::ProofVerifyFn verify_fn();

  /// Folds per-root cache stats into `stats` and returns the counters
  /// accumulated by verify() calls.
  void drain_into(SessionStats& stats) const;

 private:
  ProofPathCache& cache_for(const Digest20& root);

  bool use_cache_;
  std::size_t cache_capacity_;
  std::map<Digest20, ProofPathCache> caches_;  // one per distinct root
  std::uint64_t digest_ops_ = 0;
  std::uint64_t digest_ops_saved_ = 0;
  std::uint64_t proofs_checked_ = 0;
  std::uint64_t proofs_accepted_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t bytes_deduped_ = 0;
};

}  // namespace spider::verify
