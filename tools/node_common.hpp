// Shared plumbing for the multi-process SPIDeR tools (spider_node,
// spider_loadgen): the NodeFrame-wrapping endpoint adapter, the loopback
// deployment's deterministic key scheme, peer-spec parsing, and dial/wait
// helpers over the TCP transport's event loop.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/vpref.hpp"
#include "crypto/rsa.hpp"
#include "spider/node_wire.hpp"
#include "transport/tcp_transport.hpp"
#include "util/serde.hpp"

namespace spider::nodetool {

/// transport::Endpoint adapter that wraps recorder envelope traffic in
/// NodeFrame{kEnvelope}, answers kStatsRequest and kShutdown itself, and
/// routes every other frame type to a control handler.  The hosted
/// Recorder sees exactly the frame bytes it would see over NetsimTransport;
/// the process harness sees everything else.
class NodeEndpoint final : public transport::Endpoint {
 public:
  using ControlHandler = std::function<void(transport::PeerId, const proto::NodeFrame&)>;
  /// The node's counters for a kStats reply (the endpoint fills the token).
  using StatsSource = std::function<proto::StatsFrame()>;

  explicit NodeEndpoint(transport::TcpTransport& tcp) : tcp_(tcp) {
    tcp_.set_frame_handler([this](transport::PeerId from, util::ByteSpan frame) {
      proto::NodeFrame node_frame;
      try {
        node_frame = proto::NodeFrame::decode(frame);
        if (node_frame.type != proto::NodeFrameType::kEnvelope) {
          dispatch_control(from, node_frame);
          return;
        }
      } catch (const util::DecodeError& e) {
        std::fprintf(stderr, "dropping malformed node frame from peer %u: %s\n", from, e.what());
        return;
      }
      if (handler_) handler_(from, node_frame.body);
    });
  }

  void set_frame_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  void set_control_handler(ControlHandler handler) { control_ = std::move(handler); }
  /// Unset, stats replies carry zero counters.
  void set_stats_source(StatsSource source) { stats_ = std::move(source); }

  bool send(transport::PeerId to, util::ByteSpan frame) override {
    proto::NodeFrame node_frame{proto::NodeFrameType::kEnvelope,
                                util::Bytes(frame.begin(), frame.end())};
    return tcp_.send(to, node_frame.encode());
  }

  bool send_control(transport::PeerId to, proto::NodeFrameType type, util::ByteSpan body) {
    proto::NodeFrame node_frame{type, util::Bytes(body.begin(), body.end())};
    return tcp_.send(to, node_frame.encode());
  }

  void schedule_in(transport::Time delay, std::function<void()> fn) override {
    tcp_.schedule_in(delay, std::move(fn));
  }
  transport::Time now() const override { return tcp_.now(); }

 private:
  /// Control bodies are decoded here or by the control handler; a
  /// malformed one throws util::DecodeError and the frame is dropped.
  void dispatch_control(transport::PeerId from, const proto::NodeFrame& frame) {
    if (frame.type == proto::NodeFrameType::kStatsRequest) {
      util::ByteReader r(frame.body);
      proto::StatsFrame stats = stats_ ? stats_() : proto::StatsFrame{};
      stats.token = r.u64();
      r.expect_end();
      send_control(from, proto::NodeFrameType::kStats, stats.encode());
    } else if (frame.type == proto::NodeFrameType::kShutdown) {
      tcp_.stop();
    } else if (control_) {
      control_(from, frame);
    }
  }

  transport::TcpTransport& tcp_;
  FrameHandler handler_;
  ControlHandler control_;
  StatsSource stats_;
};

/// Deterministic per-AS keys shared by every process of one loopback
/// deployment (the keyed-hash test scheme; real deployments would load
/// RPKI-rooted keys instead).
inline util::Bytes key_of(std::uint32_t asn) {
  std::string s = "spider-node-key-" + std::to_string(asn);
  return util::Bytes(s.begin(), s.end());
}

inline void add_keys(core::KeyRegistry& keys, const std::set<std::uint32_t>& ases) {
  for (std::uint32_t asn : ases) {
    keys.add(asn, std::make_unique<crypto::HashVerifier>(key_of(asn)));
  }
}

struct PeerSpec {
  std::uint32_t id = 0;
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "ID:HOST:PORT" (e.g. "5:127.0.0.1:47701").
inline PeerSpec parse_peer_spec(const std::string& spec) {
  auto first = spec.find(':');
  auto last = spec.rfind(':');
  if (first == std::string::npos || first == last) {
    std::fprintf(stderr, "bad peer spec \"%s\" (want ID:HOST:PORT)\n", spec.c_str());
    std::exit(2);
  }
  PeerSpec out;
  out.id = static_cast<std::uint32_t>(std::strtoul(spec.substr(0, first).c_str(), nullptr, 10));
  out.host = spec.substr(first + 1, last - first - 1);
  out.port = static_cast<std::uint16_t>(std::strtoul(spec.substr(last + 1).c_str(), nullptr, 10));
  if (out.id == 0 || out.host.empty() || out.port == 0) {
    std::fprintf(stderr, "bad peer spec \"%s\"\n", spec.c_str());
    std::exit(2);
  }
  return out;
}

/// Dials a peer, retrying while its process is still starting up.
inline bool dial_with_retry(transport::TcpTransport& tcp, const PeerSpec& peer,
                            int attempts = 100) {
  for (int i = 0; i < attempts; ++i) {
    if (tcp.connect_peer(peer.id, peer.host, peer.port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

/// Pumps the event loop until `done()` or `timeout` microseconds elapse.
inline bool pump_until(transport::TcpTransport& tcp, const std::function<bool()>& done,
                       transport::Time timeout) {
  const transport::Time deadline = tcp.now() + timeout;
  while (!done() && tcp.now() < deadline) tcp.poll_once(10'000);
  return done();
}

}  // namespace spider::nodetool
