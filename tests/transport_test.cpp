// Transport layer: frame codec round-trips and its never-crash/never-accept
// contract under mutation (truncation, extension, bit flips, hostile length
// prefixes), socket endpoints with deadlines and bounded retries, session
// multiplexing, the MuxChannel transcript contract, the RetrySchedule
// backoff math, and the deterministic FaultInjector.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "telemetry/metrics.hpp"
#include "transport/breaker.hpp"
#include "transport/channel.hpp"
#include "transport/fault.hpp"
#include "transport/retry.hpp"

namespace dlr::transport {
namespace {

Frame sample_frame() {
  return Frame{7, FrameType::Data, 1, "dec.r1", Bytes{0xde, 0xad, 0xbe, 0xef, 0x00, 0x42}};
}

// ---- frame codec --------------------------------------------------------------

TEST(FrameCodecTest, RoundTrip) {
  for (const Frame& f : {
           sample_frame(),
           Frame{0, FrameType::Close, 0, "", Bytes{}},
           Frame{0xFFFFFFFFu, FrameType::Error, 2, "svc.err", Bytes(1000, 0xAB)},
           Frame{1, FrameType::Data, 2, std::string(255, 'x'), Bytes{1}},
       }) {
    const Bytes wire = encode_frame(f);
    FrameDeframer d;
    d.feed(wire);
    const auto got = d.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, f);
    EXPECT_FALSE(d.poll().has_value());
    EXPECT_NO_THROW(d.finish());
  }
}

TEST(FrameCodecTest, MaxFrameBytesIsTheDocumentedConstant) {
  // The 32-bit length prefix is capped by a *named* constant -- the cap is
  // part of the wire contract (DESIGN.md), not an incidental buffer size.
  static_assert(kMaxFrameBytes == (1u << 24));
  static_assert(kFrameHeaderBytes == 8);
}

TEST(FrameCodecTest, OversizeLengthPrefixRejectedBeforeAllocation) {
  // Hand-craft a header claiming a ~4 GiB payload: the deframer must throw
  // FrameTooLarge the moment the prefix is complete, without buffering.
  const Bytes evil = {0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00};
  FrameDeframer d;
  try {
    d.feed(evil);
    FAIL() << "oversize length prefix accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::FrameTooLarge);
  }
  EXPECT_THROW(check_frame_len(kMaxFrameBytes + 1), TransportError);
  EXPECT_NO_THROW(check_frame_len(kMaxFrameBytes));
}

TEST(FrameCodecTest, EncodeRejectsOversizeAndBadLabel) {
  Frame f = sample_frame();
  f.label = std::string(256, 'x');
  try {
    (void)encode_frame(f);
    FAIL() << "256-byte label accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::Malformed);
  }
  f = sample_frame();
  f.body.resize(kMaxFrameBytes);  // payload = fixed + label + body > cap
  try {
    (void)encode_frame(f);
    FAIL() << "over-cap frame accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::FrameTooLarge);
  }
}

TEST(FrameCodecTest, TruncationAlwaysTyped) {
  const Bytes wire = encode_frame(sample_frame());
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    FrameDeframer d;
    d.feed({wire.data(), cut});
    EXPECT_FALSE(d.poll().has_value()) << "partial frame yielded a frame at cut " << cut;
    try {
      d.finish();
      FAIL() << "truncation at " << cut << " not detected";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), Errc::Truncated);
    }
  }
}

TEST(FrameCodecTest, TrailingGarbageAlwaysTyped) {
  const Bytes wire = encode_frame(sample_frame());
  // Tails shorter than a header leave the stream mid-frame (Truncated); a
  // tail long enough to read as a length prefix may instead be rejected as a
  // hostile prefix (FrameTooLarge/Malformed). Either way: typed, never silent.
  for (const Bytes tail :
       {Bytes{0x01}, Bytes{0x00, 0x00, 0x00}, Bytes(kFrameHeaderBytes - 1, 0x5A)}) {
    Bytes stream = wire;
    stream.insert(stream.end(), tail.begin(), tail.end());
    FrameDeframer d;
    bool threw = false;
    std::size_t frames = 0;
    try {
      d.feed(stream);
      while (const auto f = d.poll()) {
        EXPECT_EQ(*f, sample_frame());
        ++frames;
      }
      d.finish();
    } catch (const TransportError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "trailing garbage silently swallowed (tail " << tail.size() << "B)";
    EXPECT_LE(frames, 1u);
  }
}

TEST(FrameCodecTest, EverySingleBitFlipIsATypedErrorNeverASilentAccept) {
  const Frame original = sample_frame();
  const Bytes wire = encode_frame(original);
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    Bytes mut = wire;
    mut[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    bool typed = false;
    bool produced_frame = false;
    try {
      FrameDeframer d;
      d.feed(mut);
      while (const auto f = d.poll()) {
        produced_frame = true;
        EXPECT_NE(*f, original) << "bit " << bit << ": mutation decoded as the original";
      }
      d.finish();
    } catch (const TransportError&) {
      typed = true;
    } catch (...) {
      FAIL() << "bit " << bit << ": non-TransportError escaped";
    }
    // The CRC covers the payload and the header fields feed the length/CRC
    // checks, so every flip must surface as a typed error somewhere -- a
    // "successfully" decoded mutated frame would be silent corruption.
    EXPECT_TRUE(typed) << "bit " << bit << ": no typed error raised";
    EXPECT_FALSE(produced_frame) << "bit " << bit << ": mutated stream yielded a frame";
  }
}

TEST(FrameCodecTest, ChunkedFeedReassemblesMultipleFrames) {
  const Frame a = sample_frame();
  const Frame b{9, FrameType::Error, 2, "svc.err", Bytes{1, 2, 3}};
  Bytes stream = encode_frame(a);
  const Bytes wb = encode_frame(b);
  stream.insert(stream.end(), wb.begin(), wb.end());

  FrameDeframer d;
  std::vector<Frame> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {  // worst case: 1 byte at a time
    d.feed({stream.data() + i, 1});
    while (auto f = d.poll()) got.push_back(std::move(*f));
  }
  EXPECT_NO_THROW(d.finish());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
}

// ---- endpoints ----------------------------------------------------------------

TEST(EndpointTest, SocketpairFramedExchange) {
  auto [sa, sb] = Socket::pair();
  FramedConn ca(std::move(sa), {});
  FramedConn cb(std::move(sb), {});
  const Frame f = sample_frame();
  ca.send(f);
  EXPECT_EQ(cb.recv(), f);
  Frame g = f;
  g.session = 42;
  g.body = Bytes(100000, 0x77);  // larger than one socket buffer write
  cb.send(g);
  EXPECT_EQ(ca.recv(), g);
}

TEST(EndpointTest, RecvTimeoutIsTyped) {
  auto [sa, sb] = Socket::pair();
  FramedConn ca(std::move(sa), {});
  try {
    (void)ca.recv(Millis{50});
    FAIL() << "recv on silent peer returned";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::Timeout);
  }
}

TEST(EndpointTest, PeerCloseIsConnectionClosed) {
  auto [sa, sb] = Socket::pair();
  FramedConn ca(std::move(sa), {});
  { Socket dead = std::move(sb); }  // peer end destroyed
  try {
    (void)ca.recv(Millis{1000});
    FAIL() << "recv from closed peer returned";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::ConnectionClosed);
  }
}

TEST(EndpointTest, LoopbackListenerAcceptConnect) {
  auto listener = Listener::loopback();
  ASSERT_NE(listener.port(), 0);
  Socket client_side;
  std::thread t([&] { client_side = connect_loopback(listener.port()); });
  Socket server_side = listener.accept(Millis{2000});
  t.join();
  FramedConn server(std::move(server_side), {});
  FramedConn client(std::move(client_side), {});
  client.send(sample_frame());
  EXPECT_EQ(server.recv(), sample_frame());
}

TEST(EndpointTest, ConnectRetriesAreBoundedAndCounted) {
  // Grab an ephemeral port and free it again: nothing listens there.
  std::uint16_t dead_port;
  {
    auto l = Listener::loopback();
    dead_port = l.port();
    l.close();
  }
  auto& reg = telemetry::Registry::global();
  const auto before = reg.counter_value("transport.retries");
  TransportOptions opt;
  opt.connect_retries = 3;
  opt.connect_backoff = Millis{1};
  try {
    (void)connect_loopback(dead_port, opt);
    FAIL() << "connect to dead port succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::RetriesExhausted);
  }
#if DLR_TELEMETRY_ENABLED
  EXPECT_GE(reg.counter_value("transport.retries"), before + 3);
#endif
}

// ---- session multiplexing -----------------------------------------------------

TEST(MuxTest, TwoSessionsInterleaveOverOneConnection) {
  auto [sa, sb] = Socket::pair();
  SessionMux ma(std::make_shared<FramedConn>(std::move(sa), TransportOptions{}));
  SessionMux mb(std::make_shared<FramedConn>(std::move(sb), TransportOptions{}));

  auto a1 = ma.open_with_id(1);
  auto a2 = ma.open_with_id(2);
  auto b1 = mb.open_with_id(1);
  auto b2 = mb.open_with_id(2);

  // Send out of order w.r.t. the receiving sessions: the mux must route by id.
  b2->send(FrameType::Data, 2, "m2", Bytes{2});
  b1->send(FrameType::Data, 2, "m1", Bytes{1});
  const Frame f1 = a1->recv(Millis{2000});
  const Frame f2 = a2->recv(Millis{2000});
  EXPECT_EQ(f1.label, "m1");
  EXPECT_EQ(f1.body, Bytes{1});
  EXPECT_EQ(f2.label, "m2");
  EXPECT_EQ(f2.body, Bytes{2});
}

TEST(MuxTest, OrphanFramesAreDroppedAndCounted) {
  auto [sa, sb] = Socket::pair();
  SessionMux ma(std::make_shared<FramedConn>(std::move(sa), TransportOptions{}));
  auto conn_b = std::make_shared<FramedConn>(std::move(sb), TransportOptions{});

  auto a5 = ma.open_with_id(5);
  // Raw frame for a session that does not exist, then one that does; in-order
  // delivery means the orphan was processed by the time the real one arrives.
  conn_b->send(Frame{99, FrameType::Data, 2, "ghost", Bytes{0}});
  conn_b->send(Frame{5, FrameType::Data, 2, "real", Bytes{1}});
  EXPECT_EQ(a5->recv(Millis{2000}).label, "real");
  EXPECT_EQ(ma.orphaned(), 1u);
}

TEST(MuxTest, PeerDeathPoisonsBlockedReceivers) {
  auto [sa, sb] = Socket::pair();
  SessionMux ma(std::make_shared<FramedConn>(std::move(sa), TransportOptions{}));
  auto sess = ma.open_with_id(1);
  std::thread killer([&] {
    std::this_thread::sleep_for(Millis{50});
    Socket dead = std::move(sb);  // hang up
  });
  try {
    (void)sess->recv(Millis{5000});
    FAIL() << "recv survived peer death";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::ConnectionClosed);
  }
  killer.join();
  // Sessions opened after death are poisoned immediately.
  auto late = ma.open_with_id(2);
  EXPECT_THROW((void)late->recv(Millis{100}), TransportError);
}

TEST(MuxTest, SessionOpenedOnADeadMuxFailsAtOnce) {
  auto [sa, sb] = Socket::pair();
  SessionMux ma(std::make_shared<FramedConn>(std::move(sa), TransportOptions{}));
  auto sess = ma.open();
  { Socket dead = std::move(sb); }  // the peer hangs up
  try {
    (void)sess->recv(Millis{5000});
    FAIL() << "recv survived peer death";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::ConnectionClosed);
  }
  // The pump has exited. A session opened now (by id or not) must not wait
  // out its timeout: it fails at once with the connection's terminal error.
  auto late = ma.open();
  auto late_by_id = ma.open_with_id(100);
  for (auto* s : {late.get(), late_by_id.get()}) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)s->recv(Millis{10000});
      FAIL() << "recv on a dead mux returned a frame";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), Errc::ConnectionClosed) << e.what();
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_LT(ms, 100.0);
  }
}

TEST(MuxTest, StopIsIdempotentAndThreadSafe) {
  auto [sa, sb] = Socket::pair();
  SessionMux ma(std::make_shared<FramedConn>(std::move(sa), TransportOptions{}));
  std::thread t1([&] { ma.stop(); });
  std::thread t2([&] { ma.stop(); });
  t1.join();
  t2.join();
  ma.stop();  // and again, after the pump is gone
}

// ---- net::Channel adapter -----------------------------------------------------

TEST(MuxChannelTest, ProtocolRunsOverWireWithFullTranscriptBothSides) {
  auto [sa, sb] = Socket::pair();
  SessionMux ma(std::make_shared<FramedConn>(std::move(sa), TransportOptions{}));
  SessionMux mb(std::make_shared<FramedConn>(std::move(sb), TransportOptions{}));
  auto session_a = ma.open_with_id(1);
  auto session_b = mb.open_with_id(1);

  // A toy 3-move protocol: P1 sends a query, P2 echoes it doubled, P1 acks.
  MuxChannel ch_a(*session_a, net::DeviceId::P1);
  MuxChannel ch_b(*session_b, net::DeviceId::P2);

  std::thread p2([&] {
    Bytes q = ch_b.recv(Millis{5000});
    q.insert(q.end(), q.begin(), q.end());
    ch_b.send(net::DeviceId::P2, "echo2", std::move(q));
    (void)ch_b.recv(Millis{5000});
  });

  ch_a.send(net::DeviceId::P1, "query", Bytes{9, 9});
  const Bytes& doubled = ch_a.recv(Millis{5000});
  EXPECT_EQ(doubled, (Bytes{9, 9, 9, 9}));
  ch_a.send(net::DeviceId::P1, "ack", Bytes{});
  p2.join();

  // Section 3.2: the public transcript is identical on both devices -- every
  // message appears on each side, attributed to its true sender.
  for (const net::Transcript* tr : {&ch_a.transcript(), &ch_b.transcript()}) {
    ASSERT_EQ(tr->count(), 3u);
    EXPECT_EQ(tr->messages()[0].label, "query");
    EXPECT_EQ(tr->messages()[0].from, net::DeviceId::P1);
    EXPECT_EQ(tr->messages()[1].label, "echo2");
    EXPECT_EQ(tr->messages()[1].from, net::DeviceId::P2);
    EXPECT_EQ(tr->messages()[2].label, "ack");
  }
  EXPECT_EQ(ch_a.transcript().serialize(), ch_b.transcript().serialize());
}

// ---- retry schedule -----------------------------------------------------------

TEST(RetryScheduleTest, AttemptBudgetIsBounded) {
  RetryPolicy p;
  p.max_attempts = 3;
  p.base = Millis{1};
  p.jitter = 0.0;
  RetrySchedule sched(p);
  EXPECT_TRUE(sched.next().has_value());   // failure 1 -> retry allowed
  EXPECT_TRUE(sched.next().has_value());   // failure 2 -> retry allowed
  EXPECT_FALSE(sched.next().has_value());  // failure 3 = budget spent
  EXPECT_EQ(sched.failed_attempts(), 3);
}

TEST(RetryScheduleTest, BackoffDoublesUpToCap) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.base = Millis{10};
  p.cap = Millis{25};
  p.jitter = 0.0;
  RetrySchedule sched(p);
  EXPECT_EQ(sched.next()->count(), 10);
  EXPECT_EQ(sched.next()->count(), 20);
  EXPECT_EQ(sched.next()->count(), 25);  // capped
  EXPECT_EQ(sched.next()->count(), 25);
}

TEST(RetryScheduleTest, JitterStaysWithinTheConfiguredFraction) {
  RetryPolicy p;
  p.max_attempts = 1000;
  p.base = Millis{100};
  p.cap = Millis{100};
  p.jitter = 0.5;
  RetrySchedule sched(p);
  std::uint64_t rnd = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 200; ++i) {
    rnd = rnd * 6364136223846793005ull + 1442695040888963407ull;
    const auto d = sched.next(rnd ? rnd : 1);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(d->count(), 50);
    EXPECT_LE(d->count(), 150);
  }
}

TEST(RetryScheduleTest, JitterNeverMapsTheDelayToZero) {
  // rnd % 8192 == 0 maps u to exactly -1; with jitter = 1.0 the unclamped
  // delay would be 0 ms -- a hot spin against an already-overloaded server.
  RetryPolicy p;
  p.max_attempts = 1000;
  p.base = Millis{2};
  p.cap = Millis{2};
  p.jitter = 1.0;
  RetrySchedule sched(p);
  for (int i = 0; i < 50; ++i) {
    const auto d = sched.next(8192 * static_cast<std::uint64_t>(i + 1));
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(d->count(), 1) << "jitter floor must keep every delay >= 1 ms";
  }
}

TEST(RetryScheduleTest, ServerHintFloorsTheDelay) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.base = Millis{10};
  p.cap = Millis{500};
  p.jitter = 0.0;
  RetrySchedule sched(p);
  // A hint above the client's own backoff wins...
  EXPECT_EQ(sched.next(0, Millis{250})->count(), 250);
  // ...and a hint below it is ignored (doubling continued: 10 -> 20).
  EXPECT_EQ(sched.next(0, Millis{5})->count(), 20);
}

TEST(RetryScheduleTest, DeadlineCutsTheBudgetShort) {
  RetryPolicy p;
  p.max_attempts = 1000;
  p.base = Millis{400};
  p.cap = Millis{400};
  p.jitter = 0.0;
  p.deadline = Millis{200};  // first 400ms sleep would already overshoot
  RetrySchedule sched(p);
  EXPECT_FALSE(sched.next().has_value());
}

// ---- circuit breaker ----------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndRejectsWithRetryAfter) {
  CircuitBreaker::Options o;
  o.failure_threshold = 3;
  o.open_for = Millis{1000};
  CircuitBreaker br(o);
  const auto t0 = CircuitBreaker::Clock::now();

  EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
  br.on_failure(t0);
  br.on_failure(t0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::Closed) << "below threshold";
  br.on_failure(t0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(br.opens(), 1u);

  const auto adm = br.try_acquire(t0 + Millis{10});
  EXPECT_FALSE(adm.admitted);
  EXPECT_GE(adm.retry_after.count(), 1);
  EXPECT_LE(adm.retry_after.count(), 1000);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbeAndClosesOnSuccess) {
  CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.open_for = Millis{100};
  CircuitBreaker br(o);
  const auto t0 = CircuitBreaker::Clock::now();
  br.on_failure(t0);
  ASSERT_EQ(br.state(), CircuitBreaker::State::Open);

  // Cooldown elapsed: exactly one probe is admitted, concurrents bounce.
  const auto probe = br.try_acquire(t0 + Millis{101});
  EXPECT_TRUE(probe.admitted);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
  const auto second = br.try_acquire(t0 + Millis{102});
  EXPECT_FALSE(second.admitted);
  EXPECT_GE(second.retry_after.count(), 1);

  br.on_success();
  EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(br.closes(), 1u);
}

TEST(CircuitBreakerTest, ProbeFailureReopensImmediately) {
  CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.open_for = Millis{100};
  CircuitBreaker br(o);
  const auto t0 = CircuitBreaker::Clock::now();
  br.on_failure(t0);
  ASSERT_TRUE(br.try_acquire(t0 + Millis{101}).admitted);
  br.on_failure(t0 + Millis{102});  // probe failed
  EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(br.opens(), 2u);
  EXPECT_FALSE(br.try_acquire(t0 + Millis{103}).admitted) << "cooldown re-armed";
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveFailureCount) {
  CircuitBreaker::Options o;
  o.failure_threshold = 3;
  CircuitBreaker br(o);
  const auto t0 = CircuitBreaker::Clock::now();
  br.on_failure(t0);
  br.on_failure(t0);
  br.on_success();  // endpoint answered: the streak is broken
  br.on_failure(t0);
  br.on_failure(t0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
  br.on_failure(t0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
}

// ---- fault injection ----------------------------------------------------------

namespace {

/// A FramedConn pair with side A wrapped in a FaultInjector.
struct FaultyPair {
  std::shared_ptr<FaultInjector> a;
  std::shared_ptr<FramedConn> b;

  explicit FaultyPair(FaultPlan plan) {
    auto [sa, sb] = Socket::pair();
    a = std::make_shared<FaultInjector>(
        std::make_shared<FramedConn>(std::move(sa), TransportOptions{}), std::move(plan));
    b = std::make_shared<FramedConn>(std::move(sb), TransportOptions{});
  }
};

}  // namespace

TEST(FaultInjectorTest, PassThroughIsTransparent) {
  FaultyPair fp{FaultPlan{}};
  fp.a->send(sample_frame());
  EXPECT_EQ(fp.b->recv(Millis{2000}), sample_frame());
  fp.b->send(sample_frame());
  EXPECT_EQ(fp.a->recv(Millis{2000}), sample_frame());
  EXPECT_EQ(fp.a->injected(), 0u);
}

TEST(FaultInjectorTest, DroppedFrameNeverArrives) {
  FaultyPair fp{FaultPlan{}.out_at(0, {FaultKind::Drop})};
  fp.a->send(sample_frame());
  try {
    (void)fp.b->recv(Millis{100});
    FAIL() << "dropped frame arrived";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::Timeout);
  }
  // The next frame (index 1) passes untouched.
  fp.a->send(sample_frame());
  EXPECT_EQ(fp.b->recv(Millis{2000}), sample_frame());
  EXPECT_EQ(fp.a->injected(), 1u);
}

TEST(FaultInjectorTest, DuplicatedFrameArrivesTwiceIdentically) {
  // The transport does not dedup -- it delivers both copies faithfully, and
  // the service protocol layer is what recognizes replays (journaled-reply
  // resend for prepare, idempotent ack for commit).
  FaultyPair fp{FaultPlan{}.out_at(0, {FaultKind::Duplicate})};
  fp.a->send(sample_frame());
  EXPECT_EQ(fp.b->recv(Millis{2000}), sample_frame());
  EXPECT_EQ(fp.b->recv(Millis{2000}), sample_frame());
  EXPECT_EQ(fp.a->injected(), 1u);
}

TEST(FaultInjectorTest, DuplicateToAOneShotMuxSessionIsOrphanedNotMisrouted) {
  // One-shot request/response sessions make duplicates harmless at the mux
  // layer: the second copy finds its session gone and is dropped + counted.
  auto [sa, sb] = Socket::pair();
  auto inj = std::make_shared<FaultInjector>(
      std::make_shared<FramedConn>(std::move(sa), TransportOptions{}),
      FaultPlan{}.out_at(0, {FaultKind::Duplicate}));
  SessionMux mb(std::make_shared<FramedConn>(std::move(sb), TransportOptions{}));
  {
    auto sess = mb.open_with_id(7);
    inj->send(Frame{7, FrameType::Data, 1, "reply", Bytes{1}});
    EXPECT_EQ(sess->recv(Millis{2000}).label, "reply");
  }  // session closed; the duplicate (already queued or still in flight)
  auto s1 = mb.open_with_id(1);
  inj->send(Frame{1, FrameType::Data, 1, "sync", Bytes{}});
  // In-order pump: by the time "sync" is routed, the duplicate was processed.
  // It either landed in the still-open session's queue (then died with it) or
  // was orphaned -- never delivered to a different session.
  EXPECT_EQ(s1->recv(Millis{2000}).label, "sync");
}

TEST(FaultInjectorTest, HoldUntilNextReordersAdjacentFrames) {
  FaultyPair fp{FaultPlan{}.out_at(0, {FaultKind::HoldUntilNext})};
  Frame f0 = sample_frame();
  f0.label = "first";
  Frame f1 = sample_frame();
  f1.label = "second";
  fp.a->send(f0);  // held
  fp.a->send(f1);  // delivered, then releases f0
  EXPECT_EQ(fp.b->recv(Millis{2000}).label, "second");
  EXPECT_EQ(fp.b->recv(Millis{2000}).label, "first");
  EXPECT_EQ(fp.a->injected(), 1u);
}

TEST(FaultInjectorTest, MidFrameTruncationSurfacesTyped) {
  FaultyPair fp{FaultPlan{}.out_at(0, {FaultKind::Truncate, 5})};
  fp.a->send(sample_frame());
  try {
    (void)fp.b->recv(Millis{2000});
    FAIL() << "truncated frame decoded";
  } catch (const TransportError& e) {
    // 5 bytes of an 8-byte header then EOF: the deframer reports the torn
    // stream as Truncated or the hangup as ConnectionClosed -- typed either way.
    EXPECT_TRUE(e.code() == Errc::Truncated || e.code() == Errc::ConnectionClosed)
        << e.what();
  }
}

TEST(FaultInjectorTest, BitFlipInThePayloadIsChecksumMismatch) {
  // Bit 100 sits past the 8-byte header, inside the CRC-covered payload.
  FaultyPair fp{FaultPlan{}.out_at(0, {FaultKind::BitFlip, 100})};
  fp.a->send(sample_frame());
  try {
    (void)fp.b->recv(Millis{2000});
    FAIL() << "bit-flipped frame decoded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::ChecksumMismatch);
  }
}

TEST(FaultInjectorTest, SeverIsConnectionClosedOnBothSides) {
  FaultyPair fp{FaultPlan{}.out_at(1, {FaultKind::Sever})};
  fp.a->send(sample_frame());  // index 0 passes
  EXPECT_EQ(fp.b->recv(Millis{2000}), sample_frame());
  try {
    fp.a->send(sample_frame());  // index 1: severed
    FAIL() << "send on severed connection succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), Errc::ConnectionClosed);
  }
  EXPECT_THROW((void)fp.b->recv(Millis{2000}), TransportError);
}

TEST(FaultInjectorTest, InboundFaultsApplyOnTheReceivePath) {
  FaultyPair fp{FaultPlan{}
                    .in_at(0, {FaultKind::Drop})
                    .in_at(1, {FaultKind::Duplicate})};
  fp.b->send(sample_frame());  // in-index 0: dropped
  Frame f = sample_frame();
  f.label = "kept";
  fp.b->send(f);  // in-index 1: duplicated
  EXPECT_EQ(fp.a->recv(Millis{2000}).label, "kept");
  EXPECT_EQ(fp.a->recv(Millis{2000}).label, "kept");
  EXPECT_EQ(fp.a->injected(), 2u);
}

TEST(FaultPlanTest, SeededPlansAreDeterministicAndRateRespecting) {
  const auto rates = FaultPlan::Rates{.drop = 0.2, .duplicate = 0.1, .sever = 0.05};
  const FaultPlan p1 = FaultPlan::seeded(42, rates);
  const FaultPlan p2 = FaultPlan::seeded(42, rates);
  const FaultPlan p3 = FaultPlan::seeded(43, rates);
  std::uint64_t faults = 0, differs = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (const Direction d : {Direction::Outbound, Direction::Inbound}) {
      const auto a1 = p1.action(d, i);
      const auto a2 = p2.action(d, i);
      EXPECT_EQ(static_cast<int>(a1.kind), static_cast<int>(a2.kind))
          << "same seed diverged at index " << i;
      if (a1.kind != FaultKind::Pass) ++faults;
      if (a1.kind != p3.action(d, i).kind) ++differs;
    }
  }
  // ~35% total fault rate over 4000 draws: expect a healthy, bounded count.
  EXPECT_GT(faults, 1000u);
  EXPECT_LT(faults, 2000u);
  EXPECT_GT(differs, 0u) << "different seeds produced identical schedules";
  // A zero-rate plan is all Pass; scripted entries override seeded draws.
  const FaultPlan quiet = FaultPlan::seeded(42, {});
  EXPECT_EQ(static_cast<int>(quiet.action(Direction::Outbound, 7).kind),
            static_cast<int>(FaultKind::Pass));
  FaultPlan scripted = FaultPlan::seeded(42, rates);
  scripted.out_at(3, {FaultKind::Sever});
  EXPECT_EQ(static_cast<int>(scripted.action(Direction::Outbound, 3).kind),
            static_cast<int>(FaultKind::Sever));
}

}  // namespace
}  // namespace dlr::transport
