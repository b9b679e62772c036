#include "verify/session.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/commitment.hpp"
#include "crypto/ct.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "spider/node_wire.hpp"
#include "util/thread_pool.hpp"
#include "util/timers.hpp"

namespace spider::verify {

using util::Bytes;
using util::ByteSpan;

SessionConfig pipelined_config(unsigned jobs) {
  SessionConfig config;
  config.jobs = jobs != 0 ? jobs : std::max(1u, std::thread::hardware_concurrency());
  config.window = 4;
  config.round_prefixes = 256;
  config.use_cache = true;
  return config;
}

// ----------------------------------------------------- CachedProofVerifier

ProofPathCache& CachedProofVerifier::cache_for(const Digest20& root) {
  auto it = caches_.find(root);
  if (it == caches_.end()) it = caches_.emplace(root, ProofPathCache(cache_capacity_)).first;
  return it->second;
}

bool CachedProofVerifier::verify(const Digest20& root, std::uint32_t num_classes,
                                 const core::MttPrefixProof& proof) {
  ++proofs_checked_;
  SPIDER_OBS_COUNT("core/mtt_proofs_verified", 1);
  if (proof.bit_labels.size() != num_classes) return false;
  if (proof.siblings.size() != static_cast<std::size_t>(proof.prefix.length()) + 1) return false;

  // The claim under test is always recomputed: revealed openings first...
  for (const auto& opened : proof.revealed) {
    if (opened.cls >= num_classes) return false;
    ++digest_ops_;
    if (core::bit_leaf_hash(opened.bit, opened.x) != proof.bit_labels[opened.cls]) return false;
  }
  // ...then the prefix-node label over all bit-node labels.
  ++digest_ops_;
  Digest20 current = core::mtt_prefix_label(proof.bit_labels.data(), proof.bit_labels.size());

  ProofPathCache* cache = use_cache_ ? &cache_for(root) : nullptr;

  // Fold upward, consulting the cache before each level: a hit means the
  // label at this position is known to fold to `root` through interior
  // nodes verified earlier in the session, so the remaining levels are
  // redundant.  The pairs computed below the hit chain into it and are
  // themselves safe to insert.
  std::vector<std::pair<std::uint64_t, Digest20>> trail;
  trail.reserve(proof.siblings.size());
  std::optional<std::size_t> hit_level;
  for (std::size_t level = proof.siblings.size(); level-- > 0;) {
    const std::uint64_t position = core::mtt_path_position(proof.prefix, level + 1);
    if (cache != nullptr && cache->has_path(position, current)) {
      hit_level = level;
      break;
    }
    trail.emplace_back(position, current);
    current = core::mtt_fold_level(proof.prefix, level, current, proof.siblings[level]);
    ++digest_ops_;
  }

  bool ok;
  if (hit_level) {
    ok = true;
    ++cache_hits_;
    const std::uint64_t skipped = static_cast<std::uint64_t>(*hit_level) + 1;
    digest_ops_saved_ += skipped;
    // The two sibling labels per skipped level did not need re-verifying
    // (and would not have needed shipping to a stateful checker).
    bytes_deduped_ += skipped * 2 * sizeof(Digest20);
  } else {
    ok = crypto::constant_time_equal(current, root);
    if (cache != nullptr) ++cache_misses_;
  }
  if (ok) {
    ++proofs_accepted_;
    if (cache != nullptr) {
      for (const auto& [position, label] : trail) cache->insert_path(position, label);
    }
  }
  return ok;
}

proto::ProofVerifyFn CachedProofVerifier::verify_fn() {
  return [this](const Digest20& root, std::uint32_t num_classes,
                const core::MttPrefixProof& proof) { return verify(root, num_classes, proof); };
}

void CachedProofVerifier::drain_into(SessionStats& stats) const {
  stats.digest_ops += digest_ops_;
  stats.digest_ops_saved += digest_ops_saved_;
  stats.proofs_checked += proofs_checked_;
  stats.proofs_accepted += proofs_accepted_;
  stats.cache_hits += cache_hits_;
  stats.cache_misses += cache_misses_;
  stats.bytes_deduped += bytes_deduped_;
  for (const auto& [root, cache] : caches_) {
    stats.cache_insertions += cache.stats().insertions;
    stats.cache_evictions += cache.stats().evictions;
  }
}

// ------------------------------------------------------------------ rounds

std::optional<CheckerView> checker_view(const proto::Recorder& checker, bgp::AsNumber elector,
                                        proto::Time commit_time, const core::Promise* promise,
                                        const std::optional<bgp::Prefix>& within) {
  const auto& received = checker.received_commitments();
  auto elector_it = received.find(elector);
  if (elector_it == received.end() || elector_it->second.count(commit_time) == 0) {
    return std::nullopt;
  }
  CheckerView view{elector_it->second.at(commit_time), elector, checker.config().asn, {}, {},
                   promise, &checker.classifier()};
  for (const auto& [prefix, route] : checker.my_exports_to(elector)) {
    if (!within || within->contains(prefix)) view.window[prefix] = {route};
  }
  for (auto& [prefix, route] : checker.my_imports_from(elector)) {
    if (!within || within->contains(prefix)) view.imports.emplace(prefix, std::move(route));
  }
  return view;
}

namespace {

/// `map` itself when `filter` is empty, else its accepted entries, copied
/// into `scratch`.
template <typename Map>
const Map& restricted(const Map& map, const bgp::PrefixFilter& filter, Map& scratch) {
  if (!filter) return map;
  for (const auto& entry : map) {
    if (filter(entry.first)) scratch.insert(scratch.end(), entry);
  }
  return scratch;
}

/// Decodes `encoded` into `out`; false when it does not decode.
template <typename Proofs>
bool decode_proofs(const Bytes& encoded, Proofs& out) {
  try {
    out = Proofs::decode(ByteSpan{encoded.data(), encoded.size()});
    return true;
  } catch (const util::DecodeError&) {
    return false;
  }
}

}  // namespace

RoundDetections check_round(const CheckerView& view, const proto::ProducerProofs& producer,
                            const proto::ConsumerProofs& consumer,
                            const bgp::PrefixFilter& filter, const proto::ProofVerifyFn& verify) {
  RoundDetections found;
  decltype(view.window) window;
  found.producer = proto::Checker::check_producer_proofs(
      view.commit, view.elector, restricted(view.window, filter, window), producer,
      *view.classifier, verify);
  if (view.promise != nullptr) {
    decltype(view.imports) imports;
    found.consumer = proto::Checker::check_consumer_proofs(
        view.commit, view.elector, *view.promise, restricted(view.imports, filter, imports),
        consumer, view.self, *view.classifier, verify);
  }
  return found;
}

RoundDetections check_bundle(const CheckerView& view, const proto::ProofBundleFrame& frame,
                             const proto::ProofVerifyFn& verify) {
  proto::ProducerProofs producer;
  proto::ConsumerProofs consumer;
  const bool producer_decodes = decode_proofs(frame.producer_proofs, producer);
  const bool consumer_decodes = decode_proofs(frame.consumer_proofs, consumer);
  RoundDetections found = check_round(view, producer, consumer,
                                      proto::proof_round_filter(frame.round, frame.round_count),
                                      verify);
  const core::Detection malformed{core::FaultKind::kMalformedMessage, view.elector,
                                  "proof set does not decode"};
  if (!producer_decodes) found.producer = malformed;
  if (!consumer_decodes) found.consumer = malformed;
  return found;
}

// ------------------------------------------------------------------ prover

Prover::Prover(const proto::MessageLog& log, proto::ElectorParams params,
               proto::Time commit_time, unsigned threads, bool memoize)
    : elector_(params.config.asn),
      generator_(log, std::move(params)),
      recon_(generator_.reconstruct(commit_time, threads)),
      memoize_(memoize) {}

Prover::Round Prover::round(bgp::AsNumber neighbor, std::uint32_t round,
                            std::uint32_t round_count, const bgp::PrefixFilter& filter) const {
  const proto::ProofOptions options{filter, memoize_ ? &memo_ : nullptr};
  Round proved{generator_.proofs_for_producer(recon_, neighbor, options),
               generator_.proofs_for_consumer(recon_, neighbor, options), {}};
  proved.frame = {elector_, recon_.commit_time, neighbor, round, round_count,
                  recon_.root_matches, proved.producer.encode(), proved.consumer.encode()};
  return proved;
}

proto::ProofBundleFrame prove_request(const Prover* prover,
                                      const proto::ProofRequestFrame& request) {
  const bgp::PrefixFilter in_round = proto::proof_round_filter(request.round, request.round_count);
  if (prover != nullptr) {
    return prover->round(request.consumer, request.round, request.round_count, in_round).frame;
  }
  return {request.elector, request.commit_time, request.consumer, request.round,
          request.round_count, /*root_matches=*/0, proto::ProducerProofs{}.encode(),
          proto::ConsumerProofs{}.encode()};
}

// --------------------------------------------------------------- sessions

namespace {

/// Per-neighbor session state: the checker's own view plus verdict slots.
struct NeighborPlan {
  bgp::AsNumber neighbor = 0;
  std::optional<CheckerView> view;  // nullopt: no commitment received
  std::optional<core::Detection> producer_detection;
  std::optional<core::Detection> consumer_detection;
};

/// One challenge/response round: the elector proves both roles for one
/// chunk of one neighbor's prefixes, and signs the bundle.
struct RoundTask {
  NeighborPlan* plan = nullptr;
  std::uint32_t round = 0;
  std::uint32_t round_count = 1;
  bgp::PrefixFilter filter;

  // Filled by the worker.
  proto::ProducerProofs producer;
  proto::ConsumerProofs consumer;
  std::size_t payload_bytes = 0;  // the two proof-set encodings (the shipped bytes)
  Bytes bundle;                   // signed message: the ProofBundleFrame encoding
  Bytes signature;                // elector's signature over `bundle`
  std::exception_ptr error;
  bool done = false;  // guarded by the session mutex

  // Filled by the consumer.
  bool signature_ok = false;
};

/// Appends `plan`'s rounds to `tasks`: the sorted union of its export and
/// import keys cut into runs of `round_prefixes` (0 = one run), each round
/// covering the key range [its run's first key, the next run's first key),
/// open below for the first round and above for the last, inside `within`.
void schedule_rounds(NeighborPlan& plan, std::size_t round_prefixes,
                     const std::optional<bgp::Prefix>& within, std::vector<RoundTask>& tasks) {
  std::vector<bgp::Prefix> starts;  // first key of every run but the first
  if (round_prefixes != 0) {
    std::vector<bgp::Prefix> keys;
    for (const auto& [prefix, routes] : plan.view->window) keys.push_back(prefix);
    for (const auto& [prefix, route] : plan.view->imports) keys.push_back(prefix);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (std::size_t i = round_prefixes; i < keys.size(); i += round_prefixes) {
      starts.push_back(keys[i]);
    }
  }
  const auto round_count = static_cast<std::uint32_t>(starts.size() + 1);
  for (std::uint32_t round = 0; round < round_count; ++round) {
    RoundTask& task = tasks.emplace_back();
    task.plan = &plan;
    task.round = round;
    task.round_count = round_count;
    std::optional<bgp::Prefix> lower, upper;
    if (round > 0) lower = starts[round - 1];
    if (round + 1 < round_count) upper = starts[round];
    if (!lower && !upper && !within) continue;  // the whole space: no filter
    task.filter = [lower, upper, within](const bgp::Prefix& prefix) {
      return (!lower || *lower <= prefix) && (!upper || prefix < *upper) &&
             (!within || within->contains(prefix));
    };
  }
}

}  // namespace

SessionResult run_session(proto::Fig5Deployment& deploy, bgp::AsNumber elector,
                          proto::Time commit_time, const SessionConfig& config, bool extended,
                          std::optional<bgp::Prefix> within) {
  SPIDER_OBS_SPAN(verification_span, "spider/verification");
  SPIDER_OBS_COUNT("spider/verifications", 1);
  util::WallTimer total_timer;
  SessionResult result;
  proto::VerificationReport& report = result.report;
  SessionStats& stats = result.stats;
  report.elector = elector;
  report.commit_time = commit_time;

  const std::vector<bgp::AsNumber> neighbors = deploy.neighbors_of(elector);
  const auto& promises = deploy.recorder(elector).promises();

  // --- Phase 1: each neighbor's checker view, and the commitment
  // cross-check among the neighbors (§4.5 step 1).
  std::vector<NeighborPlan> plans;
  std::vector<proto::SpiderCommit> commits;
  for (bgp::AsNumber neighbor : neighbors) {
    auto promise_it = promises.find(neighbor);
    NeighborPlan& plan = plans.emplace_back();
    plan.neighbor = neighbor;
    plan.view = checker_view(deploy.recorder(neighbor), elector, commit_time,
                             promise_it != promises.end() ? &promise_it->second : nullptr,
                             within);
    if (plan.view) commits.push_back(plan.view->commit);
  }
  report.equivocation = proto::Checker::cross_check_commits(elector, commits);

  // --- Phase 2: the elector reconstructs (checkpoint + replay + seed).
  // The sequential baseline proves memo-free.
  const proto::Recorder& elector_recorder = deploy.recorder(elector);
  const Prover prover(elector_recorder, commit_time, elector_recorder.config().commit_threads,
                      config.use_cache);
  report.root_matches = prover.root_matches();
  stats.reconstruct_seconds = prover.reconstruct_seconds();

  // Extended verification inputs are gathered up front: the elector must
  // request RE-ANNOUNCE sets from every producer regardless of which
  // routes it chose (§6.6 privacy requirement).
  std::vector<proto::ReAnnounceSet> re_sets;
  if (extended) {
    for (bgp::AsNumber neighbor : neighbors) {
      // Each set costs the elector one challenge round-trip to a producer.
      SPIDER_OBS_COUNT("spider/challenge_round_trips", 1);
      ++stats.challenge_round_trips;
      re_sets.push_back(proto::build_re_announce_set(deploy.recorder(neighbor), elector,
                                                     commit_time));
    }
  }

  util::WallTimer session_timer;

  // --- Phase 3a: the round schedule, in neighbor order then chunk order.
  std::vector<RoundTask> tasks;
  for (NeighborPlan& plan : plans) {
    if (plan.view) schedule_rounds(plan, config.round_prefixes, within, tasks);
  }

  // --- Phase 3b: the pipeline.  Workers generate and sign round bundles;
  // the main thread consumes them in order, batch-checks signatures per
  // flush window, and runs the checkers through the memoizing verifier.
  const crypto::Signer& signer = elector_recorder.signer();
  // Worker-thread spans have no parent: span nesting is per thread.
  auto run_round = [&](RoundTask& task) {
    {
      SPIDER_OBS_SPAN(prove_span, "verify/prove_round");
      Prover::Round proved =
          prover.round(task.plan->neighbor, task.round, task.round_count, task.filter);
      task.producer = std::move(proved.producer);
      task.consumer = std::move(proved.consumer);
      // The signed bundle has the socket frame's layout, but its (round,
      // round_count) number key-range chunks, not proof_round_of buckets:
      // check_bundle would check it against the wrong prefixes.
      task.payload_bytes =
          proved.frame.producer_proofs.size() + proved.frame.consumer_proofs.size();
      task.bundle = proved.frame.encode();
    }
    SPIDER_OBS_SPAN(sign_span, "verify/sign_round");
    task.signature = signer.sign(ByteSpan{task.bundle.data(), task.bundle.size()});
  };

  CachedProofVerifier verifier(config.use_cache);
  const proto::ProofVerifyFn verify_fn = verifier.verify_fn();

  // A window of same-key RSA signature checks verifies as one batch; the
  // keyed-hash test scheme verifies per bundle either way.
  std::optional<crypto::RsaPublicKey> batch_key;
  if (config.window > 1 && deploy.config().scheme == proto::DeploymentConfig::SignScheme::kRsa) {
    const Bytes encoded = signer.public_key();
    batch_key = crypto::RsaPublicKey::decode(ByteSpan{encoded.data(), encoded.size()});
  }

  std::vector<RoundTask*> pending;  // consumed, awaiting a signature flush
  auto flush_signatures = [&]() {
    if (pending.empty()) return;
    {
      SPIDER_OBS_SPAN(flush_span, "verify/signature_flush");
      if (batch_key) {
        std::vector<crypto::RsaVerifyItem> items;
        items.reserve(pending.size());
        for (RoundTask* task : pending) {
          items.push_back({ByteSpan{task->bundle.data(), task->bundle.size()},
                           ByteSpan{task->signature.data(), task->signature.size()}});
        }
        const std::vector<bool> ok = crypto::rsa_verify_batch(*batch_key, items);
        for (std::size_t i = 0; i < pending.size(); ++i) pending[i]->signature_ok = ok[i];
        ++stats.signature_batches;
      } else {
        for (RoundTask* task : pending) {
          task->signature_ok =
              deploy.keys().verify(elector, ByteSpan{task->bundle.data(), task->bundle.size()},
                                   ByteSpan{task->signature.data(), task->signature.size()});
        }
      }
      stats.signatures_verified += pending.size();
    }

    // Run the checkers for the flushed rounds, in round order; the first
    // detection per (neighbor, role) wins.
    SPIDER_OBS_SPAN(check_span, "verify/check_round");
    for (RoundTask* task : pending) {
      NeighborPlan& plan = *task->plan;
      RoundDetections found;
      if (task->signature_ok) {
        found = check_round(*plan.view, task->producer, task->consumer, task->filter, verify_fn);
      } else {
        ++stats.bad_signatures;
        const core::Detection bad{core::FaultKind::kBadSignature, elector,
                                  "proof bundle signature failed"};
        found = {bad, bad};
      }
      if (!plan.producer_detection) plan.producer_detection = std::move(found.producer);
      if (!plan.consumer_detection) plan.consumer_detection = std::move(found.consumer);
    }
    pending.clear();
  };

  // The sequential baseline is the same pipeline one round deep: one
  // worker, and a flush after every round.
  const unsigned jobs = std::max(1u, config.jobs);
  const std::size_t flush_size = std::max<unsigned>(1, config.window);
  const std::size_t inflight_cap = static_cast<std::size_t>(jobs) * flush_size;
  std::exception_ptr first_error;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  std::size_t next_submit = 0;
  util::ThreadPool pool(jobs);
  auto submit_ready = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    while (next_submit < tasks.size() && inflight < inflight_cap) {
      RoundTask* task = &tasks[next_submit];
      ++inflight;
      ++next_submit;
      lock.unlock();
      pool.submit([&, task] {
        try {
          run_round(*task);
        } catch (...) {
          task->error = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> guard(mu);
          task->done = true;
          --inflight;
        }
        cv.notify_all();
      });
      lock.lock();
    }
  };

  for (RoundTask& task : tasks) {
    submit_ready();
    {
      SPIDER_OBS_SPAN(wait_span, "verify/wait_round");
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return task.done; });
    }
    submit_ready();  // the finished round freed a window slot
    if (task.error != nullptr) {
      if (first_error == nullptr) first_error = task.error;
      continue;
    }
    if (first_error != nullptr) continue;  // drain without checking
    stats.bytes_shipped += task.payload_bytes;
    ++stats.challenge_round_trips;
    pending.push_back(&task);
    if (pending.size() >= flush_size) flush_signatures();
  }
  flush_signatures();
  if (first_error != nullptr) std::rethrow_exception(first_error);

  // --- Phase 3c: verdict merge, in neighbor order like the sequential
  // flow (extended verification runs here, on the checker's full import
  // view).
  for (NeighborPlan& plan : plans) {
    proto::NeighborVerdict verdict;
    verdict.neighbor = plan.neighbor;
    if (!plan.view) {
      verdict.as_consumer = core::Detection{core::FaultKind::kMissingMessage, elector,
                                            "no commitment received for this round"};
      report.verdicts.push_back(std::move(verdict));
      continue;
    }
    verdict.as_producer = plan.producer_detection;
    verdict.as_consumer = plan.consumer_detection;
    if (extended) {
      SPIDER_OBS_SPAN(extended_span, "verify/extended");
      auto selected = prover.select_re_announcements(plan.neighbor, re_sets);
      verdict.extended =
          proto::Checker::check_re_announcements(elector, plan.view->imports, selected);
    }
    report.verdicts.push_back(std::move(verdict));
  }

  verifier.drain_into(stats);
  stats.session_seconds = session_timer.seconds();
  stats.total_seconds = total_timer.seconds();
  report.proof_bytes = stats.bytes_shipped;
  report.proof_bytes_deduped = stats.bytes_deduped;
  report.elapsed_seconds = stats.total_seconds;

  SPIDER_OBS_COUNT("verify/rounds", tasks.size());
  SPIDER_OBS_COUNT("verify/digest_ops", stats.digest_ops);
  SPIDER_OBS_COUNT("verify/cache_hits", stats.cache_hits);
  SPIDER_OBS_COUNT("verify/cache_misses", stats.cache_misses);
  SPIDER_OBS_COUNT("verify/bytes_deduped", stats.bytes_deduped);
  SPIDER_OBS_COUNT("verify/signature_batches", stats.signature_batches);
#if !defined(SPIDER_OBS_DISABLED)
  SPIDER_OBS_COUNT("spider/proof_bytes", report.proof_bytes);
  for (const auto& verdict : report.verdicts) {
    std::size_t hits = (verdict.as_producer ? 1 : 0) + (verdict.as_consumer ? 1 : 0) +
                       (verdict.extended ? 1 : 0);
    SPIDER_OBS_COUNT("spider/detections", hits);
  }
  if (report.equivocation) SPIDER_OBS_COUNT("spider/detections", 1);
#endif
  return result;
}

}  // namespace spider::verify
