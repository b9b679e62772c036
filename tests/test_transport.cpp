// Transport-plane contracts: stream framing under adversarial
// segmentation, the TCP backend's loopback behavior (attribution,
// backpressure, oversize-frame teardown, timer FIFO), the node tools'
// NodeEndpoint adapter, and the proof generator's log transfer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/sha2.hpp"
#include "node_common.hpp"
#include "spider/messages.hpp"
#include "spider/node_wire.hpp"
#include "transport/framing.hpp"
#include "transport/tcp_transport.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace st = spider::transport;
namespace sp = spider::proto;
namespace sb = spider::bgp;
namespace sc = spider::core;
namespace scr = spider::crypto;
namespace su = spider::util;
using su::Bytes;

namespace {

sb::Route sample_route() {
  sb::Route route;
  route.prefix = sb::Prefix::parse("10.20.0.0/16");
  route.as_path = {3, 9, 14};
  route.learned_from = 3;
  return route;
}

/// One encoded instance of every SPIDeR wire message that crosses the
/// transport, in a fixed order.
std::vector<Bytes> every_spider_message() {
  std::vector<Bytes> messages;

  sp::SpiderAnnounce announce;
  announce.timestamp = 1'000'000;
  announce.from_as = 3;
  announce.to_as = 5;
  announce.route = sample_route();
  announce.underlying_from = 9;
  announce.underlying_digest = scr::digest20(su::str_bytes("underlying"));
  messages.push_back(announce.encode());

  sp::SpiderWithdraw withdraw;
  withdraw.timestamp = 1'100'000;
  withdraw.from_as = 3;
  withdraw.to_as = 5;
  withdraw.prefix = sb::Prefix::parse("10.20.0.0/16");
  messages.push_back(withdraw.encode());

  sp::SpiderAck ack;
  ack.timestamp = 1'200'000;
  ack.from_as = 5;
  ack.to_as = 3;
  ack.message_digest = scr::digest20(su::str_bytes("batch"));
  messages.push_back(ack.encode());

  sp::SpiderCommit commit;
  commit.timestamp = 1'300'000;
  commit.from_as = 5;
  commit.num_classes = 50;
  commit.root = scr::digest20(su::str_bytes("root"));
  messages.push_back(commit.encode());

  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, announce.encode()});
  batch.parts.push_back({sp::SpiderMsgType::kWithdraw, withdraw.encode()});
  messages.push_back(batch.encode());

  sc::SignedEnvelope envelope;
  envelope.signer = 3;
  envelope.payload = batch.encode();
  envelope.signature = su::str_bytes("signature-bytes-here");
  messages.push_back(envelope.encode());

  // The multi-process control frames ride the same framed streams.
  sp::NodeFrame node_frame{sp::NodeFrameType::kEnvelope, envelope.encode()};
  messages.push_back(node_frame.encode());
  sp::InjectFrame inject;
  inject.seq = 7;
  inject.sent_at = 1'400'000;
  inject.update.announced.push_back(sample_route());
  messages.push_back(sp::NodeFrame{sp::NodeFrameType::kInject, inject.encode()}.encode());
  messages.push_back(sp::NodeFrame{sp::NodeFrameType::kShutdown, {}}.encode());

  return messages;
}

/// Frames `payloads` into one stream, then reassembles it fed in
/// `segments`-sized pieces; returns the delivered payloads.
std::vector<Bytes> reassemble(const std::vector<Bytes>& payloads,
                              const std::vector<std::size_t>& segments) {
  Bytes stream;
  for (const Bytes& payload : payloads) {
    std::uint8_t header[st::kFrameHeaderBytes];
    st::write_frame_header(header, payload.size(), {});
    stream.insert(stream.end(), header, header + sizeof(header));
    stream.insert(stream.end(), payload.begin(), payload.end());
  }

  st::FrameDecoder decoder;
  std::vector<Bytes> delivered;
  std::size_t pos = 0;
  auto feed = [&](std::size_t count) {
    count = std::min(count, stream.size() - pos);
    decoder.feed(su::ByteSpan(stream.data() + pos, count));
    pos += count;
    while (auto frame = decoder.next()) delivered.push_back(std::move(*frame));
  };
  for (std::size_t segment : segments) feed(segment);
  feed(stream.size() - pos);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return delivered;
}

TEST(FrameSegmentation, EveryMessageSurvivesOneByteReads) {
  const std::vector<Bytes> messages = every_spider_message();
  std::size_t stream_len = 0;
  for (const Bytes& m : messages) stream_len += st::kFrameHeaderBytes + m.size();
  EXPECT_EQ(reassemble(messages, std::vector<std::size_t>(stream_len, 1)), messages);
}

TEST(FrameSegmentation, EveryMessageSurvivesRandomizedSplits) {
  const std::vector<Bytes> messages = every_spider_message();
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    su::SplitMix64 rng(seed);
    std::vector<std::size_t> segments;
    for (int i = 0; i < 64; ++i) segments.push_back(rng.next() % 23);  // 0..22-byte reads
    EXPECT_EQ(reassemble(messages, segments), messages) << "seed " << seed;
  }
}

TEST(FrameSegmentation, CoalescedAndWholeStreamReadsDeliverInOrder) {
  const std::vector<Bytes> messages = every_spider_message();
  EXPECT_EQ(reassemble(messages, {}), messages);             // one giant read
  EXPECT_EQ(reassemble(messages, {3, 1, 4, 1, 5}), messages);  // ragged prefix
}

TEST(FrameDecoder, OversizeHeaderFaultsFromHeaderBytesAlone) {
  st::FrameDecoder decoder({.max_frame_bytes = 1024, .max_buffered_bytes = 4096});
  const std::uint8_t header[4] = {0x00, 0x00, 0x04, 0x01};  // 1025 > 1024
  EXPECT_THROW(decoder.feed(su::ByteSpan(header, 4)), su::DecodeError);
}

TEST(FrameDecoder, BufferedBytesBoundEnforced) {
  st::FrameDecoder decoder({.max_frame_bytes = 1024, .max_buffered_bytes = 1028});
  // Two frames' worth of bytes in one feed exceeds the buffer bound even
  // though each frame alone is acceptable.
  Bytes stream;
  for (int i = 0; i < 2; ++i) {
    Bytes payload(1000, 0xab);
    std::uint8_t header[st::kFrameHeaderBytes];
    st::write_frame_header(header, payload.size(), {.max_frame_bytes = 1024});
    stream.insert(stream.end(), header, header + sizeof(header));
    stream.insert(stream.end(), payload.begin(), payload.end());
  }
  EXPECT_THROW(decoder.feed(stream), su::DecodeError);
}

// ----------------------------------------------------------- TCP loopback

/// Pumps both endpoints' loops until `done` or ~`timeout_us` elapses.
template <typename Done>
bool pump(st::TcpTransport& a, st::TcpTransport& b, Done done, st::Time timeout_us = 5'000'000) {
  const st::Time deadline = a.now() + timeout_us;
  while (!done() && a.now() < deadline) {
    a.poll_once(1'000);
    b.poll_once(1'000);
  }
  return done();
}

TEST(TcpLoopback, PreambleAttributesBothDirections) {
  st::TcpTransport server(5), client(2);
  std::vector<std::pair<st::PeerId, Bytes>> server_got, client_got;
  server.set_frame_handler([&](st::PeerId from, su::ByteSpan frame) {
    server_got.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });
  client.set_frame_handler([&](st::PeerId from, su::ByteSpan frame) {
    client_got.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });

  const std::uint16_t port = server.listen_on(0);
  ASSERT_NE(port, 0);
  ASSERT_TRUE(client.connect_peer(5, "127.0.0.1", port));
  ASSERT_TRUE(client.send(5, su::str_bytes("hello from 2")));
  ASSERT_TRUE(pump(server, client, [&] { return !server_got.empty(); }));
  ASSERT_EQ(server_got.size(), 1u);
  EXPECT_EQ(server_got[0].first, 2u);  // attributed via the client's preamble
  EXPECT_EQ(server_got[0].second, su::str_bytes("hello from 2"));
  EXPECT_TRUE(server.peer_connected(2));

  // The server can address the client by peer id over the same connection.
  ASSERT_TRUE(server.send(2, su::str_bytes("hello from 5")));
  ASSERT_TRUE(pump(server, client, [&] { return !client_got.empty(); }));
  EXPECT_EQ(client_got[0].first, 5u);
  EXPECT_EQ(client_got[0].second, su::str_bytes("hello from 5"));
}

TEST(TcpLoopback, SendToUnknownPeerFailsFast) {
  st::TcpTransport endpoint(1);
  EXPECT_FALSE(endpoint.send(99, su::str_bytes("nobody home")));
}

TEST(TcpLoopback, BackpressureRejectsOnceQueueBoundHit) {
  st::TcpConfig tight;
  tight.max_queued_bytes = 256 * 1024;
  st::TcpTransport server(5), client(2, tight);
  server.set_frame_handler([](st::PeerId, su::ByteSpan) {});
  const std::uint16_t port = server.listen_on(0);
  ASSERT_TRUE(client.connect_peer(5, "127.0.0.1", port));

  // Never polling the server: the kernel buffers fill, then the client's
  // write queue, then send() must refuse instead of buffering unboundedly.
  const Bytes frame(64 * 1024, 0x5a);
  bool rejected = false;
  for (int i = 0; i < 4096 && !rejected; ++i) rejected = !client.send(5, frame);
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(client.peer_connected(5));  // backpressure is not an error
}

TEST(TcpLoopback, OversizeFrameTearsDownConnection) {
  st::TcpConfig small_frames;
  small_frames.limits.max_frame_bytes = 4096;
  small_frames.limits.max_buffered_bytes = 4100;
  st::TcpTransport server(5, small_frames), client(2);  // client allows 64 MiB
  server.set_frame_handler([](st::PeerId, su::ByteSpan) {});
  std::vector<st::PeerId> dropped;
  server.set_disconnect_handler([&](st::PeerId peer) { dropped.push_back(peer); });

  const std::uint16_t port = server.listen_on(0);
  ASSERT_TRUE(client.connect_peer(5, "127.0.0.1", port));
  ASSERT_TRUE(client.send(5, su::str_bytes("small frame first")));
  ASSERT_TRUE(pump(server, client, [&] { return server.peer_connected(2); }));

  ASSERT_TRUE(client.send(5, Bytes(16 * 1024, 0xcd)));  // over the server's limit
  ASSERT_TRUE(pump(server, client, [&] { return !dropped.empty(); }));
  EXPECT_EQ(dropped, std::vector<st::PeerId>{2});
  EXPECT_FALSE(server.peer_connected(2));
}

TEST(TcpTransport, TimersFireInFifoOrderAtEqualDeadlines) {
  st::TcpTransport endpoint(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    endpoint.schedule_in(10'000, [&order, i] { order.push_back(i); });
  }
  endpoint.run_for(50'000);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ------------------------------------------------------------ NodeEndpoint

TEST(NodeEndpoint, MalformedControlBodyIsDroppedAndTheLoopLivesOn) {
  st::TcpTransport server(905), client(2);
  spider::nodetool::NodeEndpoint endpoint(server);
  std::vector<sp::ProofRequestFrame> requests;
  endpoint.set_control_handler([&](st::PeerId, const sp::NodeFrame& frame) {
    if (frame.type == sp::NodeFrameType::kProofRequest) {
      requests.push_back(sp::ProofRequestFrame::decode(frame.body));
    }
  });
  const std::uint16_t port = server.listen_on(0);
  ASSERT_TRUE(client.connect_peer(905, "127.0.0.1", port));

  auto send = [&](sp::NodeFrameType type, Bytes body) {
    return client.send(905, sp::NodeFrame{type, std::move(body)}.encode());
  };
  // Well-formed NodeFrames whose bodies are truncated: one the control
  // handler decodes, one the endpoint decodes itself.
  ASSERT_TRUE(send(sp::NodeFrameType::kProofRequest, {1, 2, 3}));
  ASSERT_TRUE(send(sp::NodeFrameType::kStatsRequest, {1, 2, 3}));
  sp::ProofRequestFrame valid;
  valid.elector = 5;
  valid.commit_time = 42;
  valid.consumer = 2;
  ASSERT_TRUE(send(sp::NodeFrameType::kProofRequest, valid.encode()));

  ASSERT_TRUE(pump(server, client, [&] { return !requests.empty(); }));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].elector, 5u);
  EXPECT_EQ(requests[0].commit_time, 42);
}

TEST(NodeEndpoint, AnswersStatsAndShutdownForEveryRole) {
  st::TcpTransport server(5), client(2);
  spider::nodetool::NodeEndpoint endpoint(server);
  endpoint.set_stats_source([] {
    sp::StatsFrame stats;
    stats.updates_mirrored = 7;
    return stats;
  });
  std::vector<sp::NodeFrame> control;
  endpoint.set_control_handler(
      [&](st::PeerId, const sp::NodeFrame& frame) { control.push_back(frame); });
  std::vector<sp::StatsFrame> replies;
  client.set_frame_handler([&](st::PeerId, su::ByteSpan frame) {
    sp::NodeFrame node_frame = sp::NodeFrame::decode(frame);
    ASSERT_EQ(node_frame.type, sp::NodeFrameType::kStats);
    replies.push_back(sp::StatsFrame::decode(node_frame.body));
  });
  const std::uint16_t port = server.listen_on(0);
  ASSERT_TRUE(client.connect_peer(5, "127.0.0.1", port));

  su::ByteWriter token;
  token.u64(99);
  ASSERT_TRUE(
      client.send(5, sp::NodeFrame{sp::NodeFrameType::kStatsRequest, token.take()}.encode()));
  ASSERT_TRUE(pump(server, client, [&] { return !replies.empty(); }));
  EXPECT_EQ(replies[0].token, 99u);
  EXPECT_EQ(replies[0].updates_mirrored, 7u);

  ASSERT_TRUE(client.send(5, sp::NodeFrame{sp::NodeFrameType::kShutdown, {}}.encode()));
  client.poll_once(10'000);  // flushes the queued frame
  const st::Time before = server.now();
  server.run_for(5'000'000);  // returns early once kShutdown stops the loop
  EXPECT_LT(server.now() - before, 5'000'000);
  EXPECT_TRUE(control.empty());  // neither frame reached the role's handler
}

// ------------------------------------------------------------ log transfer

/// A log as the recorder's retention leaves it: more entries than one
/// kLogSegment batch, pruned so the chain starts mid-sequence, with a
/// checkpoint and a commitment.
sp::MessageLog sample_log() {
  sp::MessageLog log;
  log.add_checkpoint(0, {su::str_bytes("state at 0")});
  for (int i = 0; i < 300; ++i) {
    log.append(1'000 * (i + 1), i % 2 == 0 ? sp::LogDirection::kSent : sp::LogDirection::kReceived,
               2, su::str_bytes("batch " + std::to_string(i)), 4);
  }
  log.add_checkpoint(20'500, {su::str_bytes("state at 20500, part 1"), su::str_bytes("part 2")});
  sp::CommitmentRecord record;
  record.timestamp = 299'500;
  record.root = scr::digest20(su::str_bytes("root"));
  record.num_classes = 16;
  log.record_commitment(record);
  log.prune_before(20'500);
  return log;
}

/// `log` streamed and received the way the node roles do it.
sp::LogTransfer transfer_of(const sp::MessageLog& log) {
  sp::LogTransfer transfer;
  sp::stream_log(log, [&](const sp::LogSegmentFrame& segment) {
    transfer.add(sp::LogSegmentFrame::decode(segment.encode()));
  });
  return transfer;
}

TEST(LogTransfer, RebuildsThePrunedLogAsSent) {
  const sp::MessageLog log = sample_log();
  ASSERT_NE(log.entries().front().seq, 0u);
  const sp::MessageLog rebuilt = transfer_of(log).rebuild();
  ASSERT_EQ(rebuilt.entries().size(), log.entries().size());
  for (std::size_t i = 0; i < log.entries().size(); ++i) {
    EXPECT_EQ(rebuilt.entries()[i].encode(), log.entries()[i].encode()) << i;
  }
  ASSERT_EQ(rebuilt.checkpoints().size(), log.checkpoints().size());
  for (std::size_t i = 0; i < log.checkpoints().size(); ++i) {
    EXPECT_EQ(rebuilt.checkpoints()[i].encode(), log.checkpoints()[i].encode()) << i;
  }
  ASSERT_EQ(rebuilt.commitments().size(), 1u);
  EXPECT_EQ(rebuilt.commitments().begin()->second.encode(),
            log.commitments().begin()->second.encode());
}

TEST(LogTransfer, TamperedEntryFailsChainVerification) {
  sp::LogTransfer transfer = transfer_of(sample_log());
  // The entry keeps its authenticator, so it still decodes; only the
  // recomputed chain exposes the altered message.
  sp::LogEntry entry = sp::LogEntry::decode(transfer.entries[100]);
  entry.message.back() ^= 1;
  transfer.entries[100] = entry.encode();
  EXPECT_THROW((void)transfer.rebuild(), su::DecodeError);
}

TEST(LogTransfer, TamperedFirstRetainedEntryFailsChainVerification) {
  // A pruned ten-entry log: entry 0 of what is left chains from the last
  // pruned entry's authenticator, which travels as the chain base.
  sp::MessageLog log;
  for (int i = 1; i <= 10; ++i) {
    log.append(i * 100, sp::LogDirection::kSent, 2, su::str_bytes("m" + std::to_string(i)), 2);
  }
  log.prune_before(600);
  ASSERT_EQ(log.entries().size(), 5u);
  ASSERT_TRUE(log.verify_chain());
  EXPECT_NO_THROW((void)transfer_of(log).rebuild());

  // Entry 0's message changes; its stored authenticator does not.
  sp::LogTransfer transfer = transfer_of(log);
  sp::LogEntry entry = sp::LogEntry::decode(transfer.entries[0]);
  entry.message.back() ^= 1;
  transfer.entries[0] = entry.encode();
  EXPECT_THROW((void)transfer.rebuild(), su::DecodeError);

  auto& entries = const_cast<std::vector<sp::LogEntry>&>(log.entries());
  entries[0].message.back() ^= 1;
  EXPECT_FALSE(log.verify_chain());
}

TEST(LogTransfer, ChainBaseSegmentIsOneDigest) {
  const su::Bytes base(20, 7);
  for (const auto& records : {std::vector<su::Bytes>{su::Bytes(19, 7)},
                              std::vector<su::Bytes>{su::Bytes(21, 7)},
                              std::vector<su::Bytes>{base, base}, std::vector<su::Bytes>{}}) {
    const sp::LogSegmentFrame segment{sp::LogSegmentFrame::kChainBase, records};
    EXPECT_THROW((void)sp::LogSegmentFrame::decode(segment.encode()), su::DecodeError);
  }
  const sp::LogSegmentFrame good{sp::LogSegmentFrame::kChainBase, {base}};
  EXPECT_EQ(sp::LogSegmentFrame::decode(good.encode()).records.front(), base);
  su::Bytes unknown_kind = good.encode();
  unknown_kind[0] = sp::LogSegmentFrame::kChainBase + 1;
  EXPECT_THROW((void)sp::LogSegmentFrame::decode(unknown_kind), su::DecodeError);
}

TEST(LogTransfer, TruncatedRecordsAreRejected) {
  for (auto member : {&sp::LogTransfer::entries, &sp::LogTransfer::checkpoints,
                      &sp::LogTransfer::commitments}) {
    sp::LogTransfer transfer = transfer_of(sample_log());
    (transfer.*member).back().pop_back();
    EXPECT_THROW((void)transfer.rebuild(), su::DecodeError);
  }
}

}  // namespace
