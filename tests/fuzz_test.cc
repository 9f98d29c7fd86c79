// Seeded randomized stress tests: invariants that must hold for any input
// the generators can produce.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/concurrent_manager.h"
#include "core/decision_engine.h"
#include "exp/scenario.h"
#include "net/channel.h"
#include "net/transport.h"
#include "util/rng.h"

namespace tibfit {
namespace {

// ---------- Concurrent-window manager ----------

class ConcurrentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcurrentFuzz, EveryReportReleasedExactlyOnce) {
    util::Rng rng(GetParam());
    core::ConcurrentEventManager m(5.0, 1.0);

    // A random stream of reports over 40 seconds.
    const std::size_t n = 60 + rng.uniform_index(60);
    std::vector<double> arrival(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.exponential(2.0);
        arrival[i] = t;
    }
    std::multiset<std::size_t> released;
    std::size_t next = 0;
    for (double now = 0.0; now < t + 5.0; now += 0.25) {
        while (next < n && arrival[next] <= now) {
            m.add_report(arrival[next], next, rng.point_in_rect(100, 100));
            ++next;
        }
        for (const auto& group : m.collect_ready(now)) {
            for (std::size_t idx : group) released.insert(idx);
        }
    }
    for (const auto& group : m.collect_ready(t + 100.0)) {
        for (std::size_t idx : group) released.insert(idx);
    }
    EXPECT_TRUE(m.idle());
    ASSERT_EQ(released.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(released.count(i), 1u) << "report " << i;
    }
}

TEST_P(ConcurrentFuzz, GroupsRespectSpatialSeparation) {
    // Two reports farther apart than the sum of any overlap chain can span
    // must never share a group if their circles never connect. We check a
    // weaker but exact invariant: reports in different groups released at
    // the same collect are > r_error apart from every member of the other
    // group's founding circle; simpler: groups are disjoint (already
    // covered) and each group is non-empty.
    util::Rng rng(GetParam() + 500);
    core::ConcurrentEventManager m(5.0, 1.0);
    for (std::size_t i = 0; i < 50; ++i) {
        m.add_report(0.01 * static_cast<double>(i), i, rng.point_in_rect(100, 100));
    }
    const auto groups = m.collect_ready(10.0);
    std::size_t total = 0;
    for (const auto& g : groups) {
        EXPECT_FALSE(g.empty());
        total += g.size();
    }
    EXPECT_EQ(total, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentFuzz, ::testing::Range<std::uint64_t>(1, 13));

// ---------- Reliable transport under random loss ----------

class TransportHost : public sim::Process {
  public:
    TransportHost(sim::Simulator& s, sim::ProcessId id, net::Channel& ch,
                  const net::RoutingTable* rt)
        : sim::Process(s, id), transport(s, net::Radio(ch, id), rt) {}
    void handle_packet(const net::Packet& p) override {
        if (auto d = transport.on_packet(p)) delivered.push_back(*d);
    }
    net::ReliableTransport transport;
    std::vector<net::Delivered> delivered;
};

class TransportFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportFuzz, AtMostOnceDeliveryAnyLossRate) {
    util::Rng rng(GetParam());
    sim::Simulator simulator;
    net::ChannelParams cp;
    cp.drop_probability = rng.uniform(0.0, 0.5);
    net::Channel channel(simulator, rng.stream("chan"), cp);

    // Random connected-ish line of 5 hosts with jittered positions.
    std::vector<net::RouterEntry> entries;
    std::vector<std::unique_ptr<TransportHost>> hosts;
    net::RoutingTable routes;
    for (int i = 0; i < 5; ++i) {
        const util::Vec2 pos{10.0 * i + rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        entries.push_back({static_cast<sim::ProcessId>(i), pos, 14.0});
    }
    routes.rebuild(entries);
    for (int i = 0; i < 5; ++i) {
        hosts.push_back(std::make_unique<TransportHost>(
            simulator, static_cast<sim::ProcessId>(i), channel, &routes));
        channel.attach(*hosts.back(), entries[static_cast<std::size_t>(i)].position, 14.0);
    }

    const std::size_t sent = 25;
    for (std::size_t i = 0; i < sent; ++i) {
        net::ReportPayload r;
        r.positive = (i % 2) == 0;
        hosts[0]->transport.send(4, r);
    }
    simulator.run();

    // Never more deliveries than sends, never any duplicate identity, and
    // everything in flight was resolved.
    EXPECT_LE(hosts[4]->delivered.size(), sent);
    std::set<bool> dummy;
    std::map<sim::ProcessId, std::size_t> per_source;
    for (const auto& d : hosts[4]->delivered) ++per_source[d.source];
    EXPECT_LE(per_source[0], sent);
    for (const auto& h : hosts) EXPECT_EQ(h->transport.in_flight(), 0u);
    // With <= 50% loss and 5 retries per hop, the vast majority arrives.
    EXPECT_GE(hosts[4]->delivered.size() * 10, sent * 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportFuzz, ::testing::Range<std::uint64_t>(1, 11));

// ---------- Decision engine under random report storms ----------

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, NeverCrashesAndDrainsBuffer) {
    util::Rng rng(GetParam() * 7919);
    core::EngineConfig cfg;
    core::DecisionEngine engine(cfg);
    std::vector<util::Vec2> positions;
    for (int i = 0; i < 30; ++i) positions.push_back(rng.point_in_rect(100, 100));

    double now = 0.0;
    std::size_t decisions = 0;
    for (int burst = 0; burst < 20; ++burst) {
        const std::size_t k = 1 + rng.uniform_index(10);
        for (std::size_t i = 0; i < k; ++i) {
            core::EventReport r;
            r.reporter = static_cast<core::NodeId>(rng.uniform_index(30));
            r.time = now + rng.uniform(0.0, 0.3);
            r.location = rng.point_in_rect(100, 100);
            engine.submit(r);
        }
        now += rng.uniform(0.2, 3.0);
        decisions += engine.collect(now, positions).size();
    }
    decisions += engine.collect(now + 10.0, positions).size();
    EXPECT_EQ(engine.buffered_reports(), 0u);  // everything was adjudicated
    EXPECT_GT(decisions, 0u);
    // Trust stays within bounds for every node that was ever judged.
    for (core::NodeId n = 0; n < 30; ++n) {
        const double ti = engine.trust().ti(n);
        EXPECT_GT(ti, 0.0);
        EXPECT_LE(ti, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 11));

// ---------- Scenario knobs and scenario JSON (hostile input) ----------

// Values that break some field type: signs, fractions, overflow, non-finite
// spellings, empty text, junk suffixes, and names of the wrong enum.
const char* const kHostileValues[] = {
    "-3", "-0", "2.7", "1e400", "-1e400", "nan", "inf", "-inf", "", "256", "4294967296",
    "18446744073709551616", "99999999999999999999999", "0x10", "+1", " 1", "1 ", "0.5abc",
    "true", "false", "level2", "majority_vote", "shadow", "1e-320", "\xff", "9007199254740994"};

template <class T, std::size_t N>
const T& pick(util::Rng& rng, const T (&items)[N]) {
    return items[rng.uniform_index(N)];
}

class ScenarioInputFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Every key=value token drawn from the field map's paths either applies or
// throws std::invalid_argument; whatever applied survives the JSON round trip.
TEST_P(ScenarioInputFuzz, KeyValueTokensApplyOrThrowInvalidArgument) {
    util::Rng rng(GetParam());
    for (exp::Scenario s : {exp::Scenario::binary_defaults(), exp::Scenario::location_defaults()}) {
        const std::vector<std::string> tokens = exp::override_tokens(s);
        // Every leaf is also an example knob, its target cycling through
        // the Scenario and the value types a program can own.
        exp::Scenario knob_scenario = s;
        std::size_t own_count = 0;
        std::uint32_t own_small = 0;
        double own_number = 0.0;
        std::vector<exp::Knob> knobs;
        for (const std::string& token : tokens) {
            const std::string_view path = std::string_view(token).substr(0, token.find('='));
            const std::string_view leaf = path.substr(path.rfind('.') + 1);
            switch (knobs.size() % 4) {
                case 0: knobs.push_back({leaf, &knob_scenario}); break;
                case 1: knobs.push_back({leaf, &own_count}); break;
                case 2: knobs.push_back({leaf, &own_small}); break;
                default: knobs.push_back({leaf, &own_number}); break;
            }
        }
        std::size_t applied = 0, knob_applied = 0;
        for (int i = 0; i < 300; ++i) {
            const std::string& token = tokens[rng.uniform_index(tokens.size())];
            std::string key = token.substr(0, token.find('='));
            switch (rng.uniform_index(5)) {
                case 0: key = key.substr(key.rfind('.') + 1); break;  // bare leaf
                case 1: key = key.substr(0, rng.uniform_index(key.size() + 1)); break;
                case 2: key += pick(rng, kHostileValues); break;
                default: break;
            }
            std::string value = token.substr(token.find('=') + 1);
            switch (rng.uniform_index(3)) {
                case 0: value = pick(rng, kHostileValues); break;
                case 1: value += pick(rng, kHostileValues); break;
                default: break;
            }
            try {
                exp::apply_override(s, key, value);
                ++applied;
            } catch (const std::invalid_argument&) {
            }
            // The same token as an example's argument.
            try {
                exp::apply_knob(knobs, key + "=" + value);
                ++knob_applied;
            } catch (const std::invalid_argument&) {
            }
        }
        EXPECT_GT(applied, 0u);
        EXPECT_GT(knob_applied, 0u);
        s.validate();
        EXPECT_EQ(exp::to_json(exp::scenario_from_json_text(exp::to_json(s))), exp::to_json(s));
    }
}

// Mutated scenario JSON either loads or throws std::runtime_error (parse
// errors and rejected field values alike).
TEST_P(ScenarioInputFuzz, MutatedJsonLoadsOrThrowsRuntimeError) {
    util::Rng rng(GetParam() * 104729);
    exp::Scenario seeded = exp::Scenario::location_defaults();
    seeded.campaign.compromises.push_back({100.0, 0.5});
    seeded.campaign.failovers.push_back({50.0, 80.0, true});
    const std::string bases[] = {exp::to_json(exp::Scenario::binary_defaults()),
                                 exp::to_json(seeded)};
    const char* const json_values[] = {"-3", "2.7", "1e308", "-1e308", "9007199254740994",
                                       "\"abc\"", "null", "true", "[]", "{}", "1e400", "0"};
    std::size_t loaded = 0;
    for (int i = 0; i < 300; ++i) {
        std::string text = pick(rng, bases);
        for (std::uint64_t m = 1 + rng.uniform_index(3); m > 0; --m) {
            const std::size_t at = rng.uniform_index(text.size());
            switch (rng.uniform_index(4)) {
                case 0: {  // replace one member's value
                    const std::size_t colon = text.find(": ", at);
                    if (colon == std::string::npos) break;
                    const std::size_t end = text.find_first_of(",\n", colon);
                    text.replace(colon + 2, end - colon - 2, pick(rng, json_values));
                    break;
                }
                case 1: text[at] = static_cast<char>(rng.uniform_index(256)); break;
                case 2: text.erase(at, rng.uniform_index(16)); break;
                default: text.insert(at, pick(rng, kHostileValues)); break;
            }
        }
        try {
            exp::scenario_from_json_text(text).validate();
            ++loaded;
        } catch (const std::runtime_error&) {
        }
    }
    EXPECT_GT(loaded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioInputFuzz, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace tibfit
