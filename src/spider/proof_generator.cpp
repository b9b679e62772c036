#include "spider/proof_generator.hpp"

#include <stdexcept>

#include "crypto/ct.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/timers.hpp"

namespace spider::proto {

std::size_t ProducerProofs::total_bytes() const {
  std::size_t total = 0;
  for (const auto& item : items) total += item.proof.byte_size();
  return total;
}

std::size_t ConsumerProofs::total_bytes() const {
  std::size_t total = 0;
  for (const auto& item : items) total += item.proof.byte_size();
  return total;
}

Bytes ProducerProofs::encode() const {
  util::ByteWriter w;
  w.i64(commit_time);
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const Item& item : items) {
    item.prefix.encode(w);
    item.used_route.encode(w);
    w.u32(item.cls);
    w.bytes(item.proof.encode());
  }
  return w.take();
}

ProducerProofs ProducerProofs::decode(ByteSpan data) {
  util::ByteReader r(data);
  ProducerProofs proofs;
  proofs.commit_time = r.i64();
  // prefix (5) + empty route (22) + cls (4) + proof length prefix (4).
  std::uint32_t n = r.check_count(r.u32(), 35, "ProducerProofs items");
  proofs.items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Item item;
    item.prefix = bgp::Prefix::decode(r);
    item.used_route = bgp::Route::decode(r);
    item.cls = r.u32();
    item.proof = core::MttPrefixProof::decode(r.bytes());
    proofs.items.push_back(std::move(item));
  }
  r.expect_end();
  return proofs;
}

Bytes ConsumerProofs::encode() const {
  util::ByteWriter w;
  w.i64(commit_time);
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const Item& item : items) {
    item.prefix.encode(w);
    item.offered_route.encode(w);
    w.bytes(item.proof.encode());
  }
  return w.take();
}

ConsumerProofs ConsumerProofs::decode(ByteSpan data) {
  util::ByteReader r(data);
  ConsumerProofs proofs;
  proofs.commit_time = r.i64();
  // prefix (5) + empty route (22) + proof length prefix (4).
  std::uint32_t n = r.check_count(r.u32(), 31, "ConsumerProofs items");
  proofs.items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Item item;
    item.prefix = bgp::Prefix::decode(r);
    item.offered_route = bgp::Route::decode(r);
    item.proof = core::MttPrefixProof::decode(r.bytes());
    proofs.items.push_back(std::move(item));
  }
  r.expect_end();
  return proofs;
}

ProofGenerator::Reconstruction ProofGenerator::reconstruct(Time commit_time,
                                                           unsigned threads) const {
  SPIDER_OBS_SPAN(reconstruct_span, "proof_gen/reconstruct");
  SPIDER_OBS_COUNT("spider/reconstructions", 1);
  util::WallTimer timer;
  const CommitmentRecord* record = log_.commitment_at(commit_time);
  if (!record) throw std::invalid_argument("ProofGenerator: no commitment at requested time");
  const LogCheckpoint* checkpoint = log_.checkpoint_before(commit_time);
  if (!checkpoint) throw std::invalid_argument("ProofGenerator: no checkpoint before commitment");

  Reconstruction recon;
  recon.commit_time = commit_time;
  recon.seed = record->seed;
  recon.state = MirrorState::deserialize_chunked(checkpoint->chunks);

  // Replay the logged message trace (§6.5), noting each producer's
  // in-window input history (§6.4) as it goes.
  const Time window_start = commit_time - params_.config.delta;
  replay_log(log_, checkpoint->timestamp, commit_time, params_.config, recon.state,
             [&](bgp::AsNumber from, const bgp::Prefix& prefix, Time arrival) {
               if (arrival <= window_start) return;
               const InputRecord* before = recon.state.input(from, prefix);
               recon.window_candidates[{from, prefix}].push_back(
                   before ? std::optional<bgp::Route>(before->route) : std::nullopt);
             });

  // Final in-window value completes each candidate list.
  for (auto& [key, candidates] : recon.window_candidates) {
    const InputRecord* final_input = recon.state.input(key.first, key.second);
    candidates.push_back(final_input ? std::optional<bgp::Route>(final_input->route)
                                     : std::nullopt);
  }

  // Regenerate the MTT exactly as the recorder did at commit time.
  {
    SPIDER_OBS_SPAN(mtt_span, "proof_gen/mtt_path");
    auto entries =
        build_mtt_entries(recon.state, classifier_, params_.promises, params_.ignore_inputs);
    recon.tree = core::Mtt::build(std::move(entries), params_.config.num_classes);
    recon.tree.compute_labels(crypto::CommitmentPrf(recon.seed), threads);
  }
  recon.root_matches = crypto::constant_time_equal(recon.tree.root_label(), record->root);
  recon.reconstruct_seconds = timer.seconds();
  // spider-taint: declassify(§6.5: replay runs inside the challenge boundary — the checker holding the log already has the seed, so reconstructed state is not a further disclosure)
  return recon;
}

ProducerProofs ProofGenerator::proofs_for_producer(const Reconstruction& recon,
                                                   bgp::AsNumber producer,
                                                   const ProofOptions& options) const {
  ProducerProofs proofs;
  proofs.commit_time = recon.commit_time;
  if (faults_.withhold_producer_proofs) return proofs;
  const crypto::CommitmentPrf prf(recon.seed);

  auto inputs_it = recon.state.inputs().find(producer);
  if (inputs_it == recon.state.inputs().end()) return proofs;

  for (const auto& [prefix, record] : inputs_it->second) {
    if (options.filter && !options.filter(prefix)) continue;
    // Loose sync (§6.4): the elector may justify itself against any
    // in-window value from this producer that would not have been
    // preferred over the actual output.  We scan newest-first, so when the
    // final value is acceptable (always true for an honest elector, since
    // the output is the decision-process maximum) it is the one cited and
    // the producer's own current state agrees.
    bgp::Route used = record.route;
    auto window_it = recon.window_candidates.find({producer, prefix});
    if (window_it != recon.window_candidates.end()) {
      std::optional<bgp::Route> chosen =
          elector_choice(recon.state, prefix, params_.ignore_inputs);
      const auto& candidates = window_it->second;
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        if (!*it) continue;  // ⊥ needs no justification for producers
        if (!chosen || !bgp::better(**it, *chosen)) {
          used = **it;
          break;
        }
      }
    }

    ProducerProofs::Item item;
    item.prefix = prefix;
    item.used_route = used;
    item.cls = classifier_.classify(used);
    if (faults_.misclassify_producer) {
      item.cls = (item.cls + 1) % params_.config.num_classes;
    }
    item.proof = recon.tree.prove(prf, prefix, {item.cls}, options.memo);
    if (faults_.tamper_classes.count(item.cls) != 0) {
      item.proof.revealed[0].bit = !item.proof.revealed[0].bit;
    }
    proofs.items.push_back(std::move(item));
  }
  SPIDER_OBS_COUNT("spider/producer_proof_items", proofs.items.size());
  SPIDER_OBS_HIST("spider/producer_proof_bytes", proofs.total_bytes(), obs::size_buckets_bytes());
  return proofs;
}

ConsumerProofs ProofGenerator::proofs_for_consumer(const Reconstruction& recon,
                                                   bgp::AsNumber consumer,
                                                   const ProofOptions& options) const {
  ConsumerProofs proofs;
  proofs.commit_time = recon.commit_time;
  const crypto::CommitmentPrf prf(recon.seed);
  auto promise_it = params_.promises.find(consumer);
  if (promise_it == params_.promises.end()) return proofs;

  auto exports_it = recon.state.exports().find(consumer);
  if (exports_it == recon.state.exports().end()) return proofs;

  for (const auto& [prefix, record] : exports_it->second) {
    if (options.filter && !options.filter(prefix)) continue;
    bgp::Route underlying = underlying_route(record.route, params_.config.asn);
    core::ClassId cls = classifier_.classify(underlying);
    std::vector<core::ClassId> better = promise_it->second.classes_better_than(cls);

    ConsumerProofs::Item item;
    item.prefix = prefix;
    item.offered_route = record.route;
    item.proof = recon.tree.prove(prf, prefix, better, options.memo);
    for (auto& opened : item.proof.revealed) {
      if (faults_.tamper_classes.count(opened.cls) != 0) opened.bit = !opened.bit;
    }
    proofs.items.push_back(std::move(item));
  }
  SPIDER_OBS_COUNT("spider/consumer_proof_items", proofs.items.size());
  SPIDER_OBS_HIST("spider/consumer_proof_bytes", proofs.total_bytes(), obs::size_buckets_bytes());
  return proofs;
}

std::vector<SpiderAnnounce> ProofGenerator::select_re_announcements(
    const Reconstruction& recon, bgp::AsNumber consumer,
    const std::vector<ReAnnounceSet>& sets) const {
  std::vector<SpiderAnnounce> selected;
  auto exports_it = recon.state.exports().find(consumer);
  if (exports_it == recon.state.exports().end()) return selected;

  // (producer, prefix) -> its announcements; equal keys keep their
  // insertion order, which is set order, then list order.
  std::multimap<std::pair<bgp::AsNumber, bgp::Prefix>, const SpiderAnnounce*> offered;
  for (const ReAnnounceSet& set : sets) {
    for (const SpiderAnnounce& announce : set.announcements) {
      offered.emplace(std::pair{set.from_as, announce.route.prefix}, &announce);
    }
  }
  for (const auto& [prefix, record] : exports_it->second) {
    bgp::Route underlying = underlying_route(record.route, params_.config.asn);
    if (underlying.as_path.empty()) continue;  // locally originated
    const auto [first, last] = offered.equal_range({underlying.as_path.front(), prefix});
    for (auto it = first; it != last; ++it) {
      if (it->second->route.as_path == underlying.as_path) selected.push_back(*it->second);
    }
  }
  return selected;
}

ReAnnounceSet build_re_announce_set(const Recorder& producer_recorder, bgp::AsNumber elector,
                                    Time commit_time) {
  ReAnnounceSet set;
  set.from_as = producer_recorder.config().asn;
  set.commit_time = commit_time;
  for (const auto& [prefix, route] : producer_recorder.my_exports_to(elector)) {
    SpiderAnnounce announce;
    announce.timestamp = commit_time;  // §6.6: timestamps equal commit time
    announce.from_as = set.from_as;
    announce.to_as = elector;
    announce.route = route;
    announce.re_announce = true;
    set.announcements.push_back(std::move(announce));
  }
  return set;
}

}  // namespace spider::proto
