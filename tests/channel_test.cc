#include "net/channel.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/radio.h"

namespace tibfit::net {
namespace {

/// Test process that records every delivered packet.
class Sink : public sim::Process {
  public:
    Sink(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const Packet& p) override { received.push_back(p); }
    std::vector<Packet> received;
};

/// Test process that declares no interest in anything it is sent.
class Deaf : public sim::Process {
  public:
    Deaf(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const Packet&) override { ++calls; }
    bool consumes(const Packet&) const override { return false; }
    std::size_t calls = 0;
};

/// Test process that rebroadcasts every packet it hears, once, so sends
/// happen while deliveries of the original packet are still pending.
class Echo : public sim::Process {
  public:
    Echo(sim::Simulator& s, sim::ProcessId id, Channel& ch) : sim::Process(s, id), ch_(&ch) {}
    void handle_packet(const Packet& p) override {
        received.push_back(p);
        const auto* a = p.as<AffiliatePayload>();
        if (!a || a->round != 0) return;
        Packet echo;
        echo.src = id();
        echo.payload = AffiliatePayload{id() + 1};
        ch_->broadcast(std::move(echo));
    }
    std::vector<Packet> received;

  private:
    Channel* ch_;
};

class ChannelTest : public ::testing::Test {
  protected:
    ChannelTest() : channel_(simulator_, util::Rng(1), lossless()) {}

    static ChannelParams lossless() {
        ChannelParams p;
        p.drop_probability = 0.0;
        return p;
    }

    Packet report_packet(sim::ProcessId src, sim::ProcessId dst) {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.payload = ReportPayload{};
        return p;
    }

    sim::Simulator simulator_;
    Channel channel_;
};

TEST_F(ChannelTest, UnicastDelivers) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    EXPECT_TRUE(channel_.unicast(report_packet(0, 1)));
    simulator_.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].src, 0u);
    EXPECT_EQ(channel_.delivered(), 1u);
}

TEST_F(ChannelTest, DeliveryHasPropagationDelay) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 1000.0);
    channel_.attach(b, {300, 0}, 1000.0);
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    // base_latency 1e-4 + 300/3e4 = 0.0101
    EXPECT_NEAR(simulator_.now(), 0.0101, 1e-9);
}

TEST_F(ChannelTest, OutOfRangeNotDelivered) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 5.0);
    channel_.attach(b, {10, 0}, 5.0);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 1)));
    simulator_.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(channel_.out_of_range(), 1u);
}

TEST_F(ChannelTest, UnknownDestinationNotDelivered) {
    Sink a(simulator_, 0);
    channel_.attach(a, {0, 0}, 5.0);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 99)));
}

TEST_F(ChannelTest, UnknownSenderThrows) {
    EXPECT_THROW(channel_.unicast(report_packet(42, 0)), std::out_of_range);
    Packet p = report_packet(42, kBroadcast);
    EXPECT_THROW(channel_.broadcast(Packet(p)), std::out_of_range);
}

TEST_F(ChannelTest, BroadcastReachesAllInRange) {
    Sink a(simulator_, 0), b(simulator_, 1), c(simulator_, 2), far(simulator_, 3);
    channel_.attach(a, {0, 0}, 50.0);
    channel_.attach(b, {10, 0}, 50.0);
    channel_.attach(c, {20, 0}, 50.0);
    channel_.attach(far, {500, 0}, 50.0);
    Packet p = report_packet(0, kBroadcast);
    EXPECT_EQ(channel_.broadcast(Packet(p)), 2u);
    simulator_.run();
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_EQ(c.received.size(), 1u);
    EXPECT_TRUE(far.received.empty());
}

TEST_F(ChannelTest, PerSenderDropOverride) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {1, 0}, 100.0);
    channel_.set_drop_probability(0, 1.0);  // always drop
    for (int i = 0; i < 20; ++i) channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(channel_.dropped(), 20u);
    EXPECT_THROW(channel_.set_drop_probability(99, 0.5), std::out_of_range);
}

TEST_F(ChannelTest, LossRateApproximatesParameter) {
    ChannelParams lossy;
    lossy.drop_probability = 0.25;
    Channel ch(simulator_, util::Rng(7), lossy);
    Sink a(simulator_, 0), b(simulator_, 1);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.payload = ReportPayload{};
        ch.unicast(std::move(p));
    }
    simulator_.run();
    EXPECT_NEAR(static_cast<double>(b.received.size()) / n, 0.75, 0.03);
}

TEST_F(ChannelTest, DetachStopsDelivery) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {1, 0}, 100.0);
    channel_.detach(1);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 1)));
}

TEST_F(ChannelTest, SetPositionMoves) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 5.0);
    channel_.attach(b, {100, 0}, 5.0);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 1)));
    channel_.set_position(1, {3, 0});
    EXPECT_TRUE(channel_.unicast(report_packet(0, 1)));
    EXPECT_EQ(channel_.position(1).x, 3.0);
    EXPECT_THROW(channel_.set_position(77, {0, 0}), std::out_of_range);
    EXPECT_THROW(channel_.position(77), std::out_of_range);
}

TEST_F(ChannelTest, MonitorOverhearsTrafficToTarget) {
    Sink node(simulator_, 0), ch(simulator_, 1), shadow(simulator_, 2);
    channel_.attach(node, {0, 0}, 100.0);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);  // shadow watches the CH
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_EQ(ch.received.size(), 1u);
    ASSERT_EQ(shadow.received.size(), 1u);
    EXPECT_EQ(shadow.received[0].dst, 1u);  // copy keeps original addressing
}

TEST_F(ChannelTest, MonitorOverhearsTrafficFromTarget) {
    Sink ch(simulator_, 1), bs(simulator_, 3), shadow(simulator_, 2);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(bs, {50, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);
    channel_.unicast(report_packet(1, 3));  // CH -> base station
    simulator_.run();
    EXPECT_EQ(bs.received.size(), 1u);
    EXPECT_EQ(shadow.received.size(), 1u);
}

TEST_F(ChannelTest, RemoveMonitorStopsCopies) {
    Sink node(simulator_, 0), ch(simulator_, 1), shadow(simulator_, 2);
    channel_.attach(node, {0, 0}, 100.0);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);
    channel_.remove_monitor(2, 1);
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_TRUE(shadow.received.empty());
}

TEST_F(ChannelTest, RadioCountsTraffic) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    Radio r(channel_, 0);
    EXPECT_TRUE(r.send(1, ReportPayload{}));
    EXPECT_FALSE(r.send(99, ReportPayload{}));
    r.broadcast(ChAdvertPayload{});
    EXPECT_EQ(r.sent(), 3u);
    EXPECT_EQ(r.send_failures(), 1u);
    simulator_.run();
    EXPECT_EQ(b.received.size(), 2u);
}

TEST_F(ChannelTest, CollisionsDestroyOverlappingReceptions) {
    ChannelParams p = lossless();
    p.airtime = 0.01;  // receptions occupy the radio for 10 ms
    Channel ch(simulator_, util::Rng(3), p);
    Sink a(simulator_, 0), b(simulator_, 1), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    ch.attach(rx, {0.5, 1}, 100.0);

    // Two senders transmit to the same receiver in the same instant: both
    // packets overlap in the air and are lost.
    Packet p1;
    p1.src = 0;
    p1.dst = 2;
    p1.payload = ReportPayload{};
    Packet p2;
    p2.src = 1;
    p2.dst = 2;
    p2.payload = ReportPayload{};
    ch.unicast(std::move(p1));
    ch.unicast(std::move(p2));
    simulator_.run();
    EXPECT_TRUE(rx.received.empty());
    EXPECT_GE(ch.collisions(), 2u);
}

TEST_F(ChannelTest, SpacedTransmissionsDoNotCollide) {
    ChannelParams p = lossless();
    p.airtime = 0.01;
    Channel ch(simulator_, util::Rng(5), p);
    Sink a(simulator_, 0), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(rx, {1, 0}, 100.0);

    auto send = [&] {
        Packet pk;
        pk.src = 0;
        pk.dst = 2;
        pk.payload = ReportPayload{};
        ch.unicast(std::move(pk));
    };
    send();
    simulator_.schedule(0.05, send);  // well past the first airtime
    simulator_.run();
    EXPECT_EQ(rx.received.size(), 2u);
    EXPECT_EQ(ch.collisions(), 0u);
}

TEST_F(ChannelTest, ThirdPacketCollidesWithJam) {
    ChannelParams p = lossless();
    p.airtime = 0.05;
    Channel ch(simulator_, util::Rng(7), p);
    Sink a(simulator_, 0), b(simulator_, 1), c(simulator_, 3), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    ch.attach(c, {2, 0}, 100.0);
    ch.attach(rx, {0.5, 1}, 100.0);
    for (sim::ProcessId src : {0u, 1u, 3u}) {
        Packet pk;
        pk.src = src;
        pk.dst = 2;
        pk.payload = ReportPayload{};
        ch.unicast(std::move(pk));
    }
    simulator_.run();
    EXPECT_TRUE(rx.received.empty());  // the jam swallows all three
}

TEST_F(ChannelTest, CollisionsDisabledByDefault) {
    Sink a(simulator_, 0), b(simulator_, 1), rx(simulator_, 2);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {1, 0}, 100.0);
    channel_.attach(rx, {0.5, 1}, 100.0);
    for (sim::ProcessId src : {0u, 1u}) {
        Packet pk;
        pk.src = src;
        pk.dst = 2;
        pk.payload = ReportPayload{};
        channel_.unicast(std::move(pk));
    }
    simulator_.run();
    EXPECT_EQ(rx.received.size(), 2u);
    EXPECT_EQ(channel_.collisions(), 0u);
}

TEST_F(ChannelTest, PayloadVariantRoundTrip) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    DecisionPayload d;
    d.decision_seq = 7;
    d.event_declared = true;
    d.judged_faulty = {3, 4};
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.payload = d;
    channel_.unicast(std::move(p));
    simulator_.run();
    ASSERT_EQ(b.received.size(), 1u);
    const auto* got = b.received[0].as<DecisionPayload>();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->decision_seq, 7u);
    EXPECT_TRUE(got->event_declared);
    EXPECT_EQ(got->judged_faulty, (std::vector<core::NodeId>{3, 4}));
    EXPECT_EQ(b.received[0].as<ReportPayload>(), nullptr);
}

/// One sender, two listeners and an out-of-range node on a lossy channel
/// with injected duplicates and jitter. `Listener` is the type of the
/// process at id 2; everything else is identical between instances.
template <typename Listener>
struct LossyWorld {
    static ChannelParams params() {
        ChannelParams p;
        p.drop_probability = 0.3;
        return p;
    }
    LossyWorld()
        : ch(simulator, util::Rng(11), params()),
          sender(simulator, 0),
          eager(simulator, 1),
          listener(simulator, 2),
          far(simulator, 3) {
        ch.attach(sender, {0, 0}, 50.0);
        ch.attach(eager, {10, 0}, 50.0);
        ch.attach(listener, {0, 10}, 50.0);
        ch.attach(far, {500, 0}, 50.0);
        ChannelFaultWindow w;
        w.end = 1e9;
        w.duplicate_probability = 0.2;
        w.delay_jitter = 0.001;
        w.extra_drop = 0.05;
        ch.set_fault_schedule({w}, util::Rng(12));
    }
    void broadcast_rounds(std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            Packet p;
            p.src = 0;
            p.payload = AffiliatePayload{i};
            ch.broadcast(std::move(p));
        }
        simulator.run();
    }
    /// Rounds heard by `eager`: a fingerprint of the channel RNG streams.
    std::vector<std::uint32_t> eager_rounds() const {
        std::vector<std::uint32_t> out;
        for (const auto& p : eager.received) out.push_back(p.as<AffiliatePayload>()->round);
        return out;
    }

    sim::Simulator simulator;
    Channel ch;
    Sink sender;
    Sink eager;
    Listener listener;
    Sink far;
};

TEST(ChannelInterest, SkippedReceptionsKeepCountersAndRngStreams) {
    LossyWorld<Deaf> deaf;
    LossyWorld<Sink> twin;
    deaf.broadcast_rounds(2000);
    twin.broadcast_rounds(2000);

    EXPECT_EQ(deaf.listener.calls, 0u) << "an unconsumed reception must never fire";
    EXPECT_GT(twin.listener.received.size(), 1000u);
    EXPECT_EQ(deaf.ch.delivered(), twin.ch.delivered());
    EXPECT_EQ(deaf.ch.dropped(), twin.ch.dropped());
    EXPECT_EQ(deaf.ch.out_of_range(), twin.ch.out_of_range());
    EXPECT_EQ(deaf.ch.injected_drops(), twin.ch.injected_drops());
    EXPECT_EQ(deaf.ch.injected_duplicates(), twin.ch.injected_duplicates());
    EXPECT_EQ(deaf.ch.injected_delays(), twin.ch.injected_delays());
    EXPECT_EQ(deaf.eager_rounds(), twin.eager_rounds());
    EXPECT_EQ(deaf.simulator.executed() + twin.listener.received.size(),
              twin.simulator.executed());

    // The natural and injected streams are still in lockstep afterwards:
    // the next draws select the same survivors on both channels.
    deaf.eager.received.clear();
    twin.eager.received.clear();
    deaf.broadcast_rounds(500);
    twin.broadcast_rounds(500);
    EXPECT_EQ(deaf.eager_rounds(), twin.eager_rounds());
    EXPECT_EQ(deaf.ch.delivered(), twin.ch.delivered());
}

TEST(ChannelInterest, AirtimeKeepsUnconsumedReceptionsOnTheAir) {
    // With collisions modelled, a reception nobody consumes still occupies
    // the receiver's radio: it is scheduled, it collides, and it counts as
    // delivered only if it survives.
    auto run = [](auto& listener, sim::Simulator& s, Channel& ch) {
        Sink a(s, 0), b(s, 1);
        ch.attach(a, {0, 0}, 100.0);
        ch.attach(b, {1, 0}, 100.0);
        ch.attach(listener, {0.5, 1}, 100.0);
        for (int i = 0; i < 200; ++i) {
            // Every third round the two senders transmit in the same
            // instant: the second reception cancels the first mid-air.
            const double at = 0.1 * i;
            const double b_at = i % 3 == 0 ? at : at + 0.05;
            for (auto [src, t] : {std::pair<sim::ProcessId, double>{0, at}, {1, b_at}}) {
                s.schedule_at(t, [&ch, src = src] {
                    Packet p;
                    p.src = src;
                    p.payload = AffiliatePayload{};
                    ch.broadcast(std::move(p));
                });
            }
        }
        s.run();
    };
    ChannelParams p;
    p.drop_probability = 0.1;
    p.airtime = 0.01;
    sim::Simulator s1, s2;
    Channel deaf_ch(s1, util::Rng(21), p), twin_ch(s2, util::Rng(21), p);
    Deaf deaf(s1, 2);
    Sink twin(s2, 2);
    run(deaf, s1, deaf_ch);
    run(twin, s2, twin_ch);

    EXPECT_GT(twin_ch.collisions(), 0u);
    EXPECT_EQ(deaf_ch.collisions(), twin_ch.collisions());
    EXPECT_EQ(deaf_ch.delivered(), twin_ch.delivered());
    EXPECT_EQ(deaf_ch.dropped(), twin_ch.dropped());
    EXPECT_EQ(deaf.calls, twin.received.size());
    EXPECT_EQ(s1.executed(), s2.executed());
    EXPECT_EQ(deaf_ch.live_packet_slots(), 0u);
}

// --- Packet slots ------------------------------------------------------------

TEST_F(ChannelTest, PacketSlotsRecycleAcrossDrainedBroadcasts) {
    Sink a(simulator_, 0), b(simulator_, 1), c(simulator_, 2);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    channel_.attach(c, {0, 10}, 100.0);
    for (std::uint32_t i = 0; i < 10000; ++i) {
        Packet p;
        p.src = 0;
        DecisionPayload d;
        d.decision_seq = i;
        d.judged_correct = {1, 2};
        p.payload = std::move(d);
        ASSERT_EQ(channel_.broadcast(std::move(p)), 2u);
        EXPECT_EQ(channel_.live_packet_slots(), 1u) << "both receivers share one slot";
        simulator_.run();
    }
    EXPECT_EQ(channel_.packet_slot_count(), 1u) << "one packet in flight at a time";
    EXPECT_EQ(channel_.live_packet_slots(), 0u);
    ASSERT_EQ(c.received.size(), 10000u);
    EXPECT_EQ(c.received.back().as<DecisionPayload>()->decision_seq, 9999u);
}

TEST_F(ChannelTest, PacketSlotCountBoundedByPeakInFlight) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i) channel_.unicast(report_packet(0, 1));
        simulator_.run();
    }
    EXPECT_EQ(b.received.size(), 8000u);
    EXPECT_LE(channel_.packet_slot_count(), 8u);
    EXPECT_EQ(channel_.live_packet_slots(), 0u);
}

TEST_F(ChannelTest, CollisionsFreeTheSlotsOfCancelledDeliveries) {
    ChannelParams p = lossless();
    p.airtime = 0.05;
    Channel ch(simulator_, util::Rng(3), p);
    Sink a(simulator_, 0), b(simulator_, 1), c(simulator_, 3), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    ch.attach(c, {2, 0}, 100.0);
    ch.attach(rx, {0.5, 1}, 100.0);
    for (int round = 0; round < 100; ++round) {
        for (sim::ProcessId src : {0u, 1u, 3u}) {
            Packet pk;
            pk.src = src;
            pk.dst = 2;
            pk.payload = ReportPayload{};
            ch.unicast(std::move(pk));
        }
        // The first reception was cancelled mid-air by the second; the
        // later two never got an event. No slot may stay held.
        EXPECT_EQ(simulator_.pending(), 0u);
        EXPECT_EQ(ch.live_packet_slots(), 0u);
        simulator_.run_until(simulator_.now() + 1.0);
    }
    EXPECT_TRUE(rx.received.empty());
    EXPECT_EQ(ch.collisions(), 300u);
    EXPECT_LE(ch.packet_slot_count(), 2u);
}

TEST_F(ChannelTest, CollisionsWithBroadcastsFreeEverySlot) {
    // Two senders 90 apart broadcast in the same instant each round:
    // receptions collide (cancelling pending deliveries) at receivers that
    // hear both and survive at the rest, so a slot is freed only once its
    // last survivor has fired.
    ChannelParams p;
    p.drop_probability = 0.1;
    p.airtime = 0.01;
    Channel ch(simulator_, util::Rng(13), p);
    std::vector<std::unique_ptr<Sink>> sinks;
    for (sim::ProcessId id = 0; id < 6; ++id) {
        sinks.push_back(std::make_unique<Sink>(simulator_, id));
        ch.attach(*sinks.back(), {static_cast<double>(id) * 30.0, 0}, 70.0);
    }
    for (int i = 0; i < 300; ++i) {
        for (const auto src : {static_cast<sim::ProcessId>(i % 6),
                               static_cast<sim::ProcessId>((i + 3) % 6)}) {
            simulator_.schedule_at(0.05 * i, [&ch, src] {
                Packet pk;
                pk.src = src;
                pk.payload = ChAdvertPayload{};
                ch.broadcast(std::move(pk));
            });
        }
    }
    simulator_.run();
    EXPECT_GT(ch.collisions(), 0u);
    EXPECT_GT(ch.delivered(), 0u);
    EXPECT_EQ(ch.live_packet_slots(), 0u);
}

TEST_F(ChannelTest, InjectedDuplicateSharesOriginalSlot) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    ChannelFaultWindow w;
    w.end = 10.0;
    w.duplicate_probability = 1.0;
    channel_.set_fault_schedule({w}, util::Rng(2));
    ASSERT_TRUE(channel_.unicast(report_packet(0, 1)));
    EXPECT_EQ(channel_.injected_duplicates(), 1u);
    EXPECT_EQ(simulator_.pending(), 2u);
    EXPECT_EQ(channel_.packet_slot_count(), 1u);
    EXPECT_EQ(channel_.live_packet_slots(), 1u);
    simulator_.run();
    EXPECT_EQ(b.received.size(), 2u);
    EXPECT_EQ(channel_.live_packet_slots(), 0u);
}

TEST_F(ChannelTest, MonitorCopySharesOriginalSlot) {
    Sink node(simulator_, 0), ch(simulator_, 1), shadow(simulator_, 2);
    channel_.attach(node, {0, 0}, 100.0);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);
    channel_.unicast(report_packet(0, 1));
    EXPECT_EQ(simulator_.pending(), 2u);
    EXPECT_EQ(channel_.packet_slot_count(), 1u);
    simulator_.run();
    ASSERT_EQ(shadow.received.size(), 1u);
    EXPECT_EQ(ch.received.size(), 1u);
    EXPECT_EQ(channel_.live_packet_slots(), 0u);
}

TEST_F(ChannelTest, ReceiversSeeTheirOwnRssiOnASharedPacket) {
    Sink a(simulator_, 0), near(simulator_, 1), far(simulator_, 2);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(near, {1, 0}, 100.0);
    channel_.attach(far, {3, 0}, 100.0);
    Packet p;
    p.src = 0;
    p.payload = ChAdvertPayload{};
    channel_.broadcast(std::move(p));
    simulator_.run();
    ASSERT_EQ(near.received.size(), 1u);
    ASSERT_EQ(far.received.size(), 1u);
    EXPECT_DOUBLE_EQ(near.received[0].rssi, 1.0 / 2.0);
    EXPECT_DOUBLE_EQ(far.received[0].rssi, 1.0 / 10.0);
}

TEST_F(ChannelTest, HandlersThatSendNeverDisturbPendingPackets) {
    // Each receiver rebroadcasts on receipt, adding slots while other
    // deliveries of the first packet (and of earlier echoes) are pending.
    std::vector<std::unique_ptr<Echo>> echoes;
    Sink origin(simulator_, 100);
    channel_.attach(origin, {0, 0}, 1000.0);
    for (sim::ProcessId id = 0; id < 40; ++id) {
        echoes.push_back(std::make_unique<Echo>(simulator_, id, channel_));
        channel_.attach(*echoes.back(), {1.0 + id, 0}, 1000.0);
    }
    Packet p;
    p.src = 100;
    p.payload = AffiliatePayload{0};
    channel_.broadcast(std::move(p));
    simulator_.run();
    for (const auto& e : echoes) {
        ASSERT_EQ(e->received.size(), 40u);  // the original + 39 echoes
        std::vector<bool> heard(41, false);
        for (const auto& r : e->received) {
            const auto round = r.as<AffiliatePayload>()->round;
            EXPECT_EQ(r.src == 100 ? 0u : r.src + 1, round);
            heard[round] = true;
        }
        EXPECT_TRUE(heard[0]);
        EXPECT_FALSE(heard[e->id() + 1]) << "a node does not hear itself";
    }
    EXPECT_EQ(channel_.live_packet_slots(), 0u);
    EXPECT_LE(channel_.packet_slot_count(), 41u);
}

}  // namespace
}  // namespace tibfit::net
