// Example: a full SPIDeR deployment on the paper's Figure-5 topology.
//
// Ten ASes, each with a BGP speaker and a SPIDeR recorder; a synthetic
// RouteViews-style trace is injected at AS 2; AS 5 commits to its routing
// decisions every minute.  After the replay we trigger verification for
// AS 5's latest commitment: every neighbor replays its checker and — in
// the second half — AS 5 is misconfigured to hide AS 2's routes, and AS 2
// catches it.
//
// Build & run:  ./build/examples/spider_deployment
#include <cstdio>

#include "spider/deployment.hpp"
#include "spider/proof_generator.hpp"
#include "verify/session.hpp"

using namespace spider;

namespace {

constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;

trace::RouteViewsTrace demo_trace() {
  trace::TraceConfig config;
  config.num_prefixes = 3000;
  config.num_updates = 800;
  config.duration = 60 * kSecond;
  config.seed = 20120813;
  return trace::generate(config);
}

void verify_as5(proto::Fig5Deployment& deploy, const proto::CommitmentRecord& record) {
  proto::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  std::printf("  reconstruction: root %s (%.2f s, %zu prefixes)\n",
              recon.root_matches ? "matches" : "MISMATCH", recon.reconstruct_seconds,
              recon.state.all_prefixes().size());

  const core::Promise promise = core::Promise::total_order(50);
  for (bgp::AsNumber neighbor : deploy.neighbors_of(5)) {
    // Each neighbor's checker checks one round covering every prefix.
    const auto view =
        verify::checker_view(deploy.recorder(neighbor), 5, record.timestamp, &promise);
    const auto found =
        verify::check_round(view.value(), generator.proofs_for_producer(recon, neighbor),
                            generator.proofs_for_consumer(recon, neighbor));
    std::printf("  AS%-2u producer-check: %-40s consumer-check: %s\n", neighbor,
                found.producer ? found.producer->detail.c_str() : "ok",
                found.consumer ? found.consumer->detail.c_str() : "ok");
  }
}

}  // namespace

int main() {
  std::printf("=== SPIDeR on the Figure-5 topology ===\n\n");
  auto tr = demo_trace();
  std::printf("trace: %zu prefixes in the snapshot, %zu replay events\n\n",
              tr.rib_snapshot.size(), tr.events.size());

  {
    std::printf("--- run 1: every AS behaves ---\n");
    proto::DeploymentConfig config;
    config.num_classes = 50;
    config.commit_ases = {};
    proto::Fig5Deployment deploy(config);
    auto start = deploy.run_setup(tr, 60 * kSecond);
    deploy.run_replay(tr, start, 5 * kSecond);

    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();
    std::printf("AS5 committed at T=%llds; root %s...\n",
                static_cast<long long>(record.timestamp / kSecond),
                util::to_hex(record.root).substr(0, 16).c_str());
    verify_as5(deploy, record);

    std::printf("\n  recorder stats at AS5: %llu updates mirrored, %llu signatures, "
                "%llu alarms\n",
                static_cast<unsigned long long>(deploy.recorder(5).updates_mirrored()),
                static_cast<unsigned long long>(deploy.recorder(5).signatures_performed()),
                static_cast<unsigned long long>(deploy.recorder(5).alarms().size()));
  }

  {
    std::printf("\n--- run 2: AS5 silently filters AS2's routes ---\n");
    proto::DeploymentConfig config;
    config.num_classes = 50;
    config.commit_ases = {};
    proto::Fig5Deployment deploy(config);
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
    auto start = deploy.run_setup(tr, 60 * kSecond);
    deploy.run_replay(tr, start, 5 * kSecond);

    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();
    verify_as5(deploy, record);
    std::printf("\n  (AS2's producer check fails: its routes were acknowledged but the\n");
    std::printf("   committed bits say the class was empty — transferable evidence.)\n");
  }
  return 0;
}
