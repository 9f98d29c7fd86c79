// Output pins for the experiment runners: a small-event matrix with the
// shadow oracle on, covering every optional layer the runners attach
// (baseline policy, false alarms, shadow CHs, relay transport, CH
// failover, campaigns, smart and colluding faults, weighted location,
// multihop, mobility, decay, bursts with airtime, random layout), plus a
// LEACH run with and without the oracle.
//
// Each case pins, bit-for-bit, the scored accuracy, the detected count,
// the final mean TIs, the oracle tallies and an FNV-1a hash of the kept
// decision log. Any change to how a run is assembled (component order,
// attach order, schedule order, RNG stream use) shows up here; the level-1
// campaign case, for one, sees the channel's broadcast order, because
// smart nodes react to which decisions the injected loss lets through.
//
// Rerun with a recorder attached, each case (and the LEACH run without
// the oracle) also pins a hash of every counter the run publishes, so a
// count that moves, or a counter registered under a different condition,
// shows up too.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_head.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"
#include "obs/recorder.h"

namespace tibfit::exp {
namespace {

/// FNV-1a (64-bit), each value taken as 8 little-endian bytes.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void operator()(std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte, v >>= 8) byte_in(v & 0xff);
    }
    void operator()(const std::string& s) {
        for (const char c : s) byte_in(static_cast<unsigned char>(c));
        (*this)(s.size());
    }
    void byte_in(std::uint64_t b) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
};

/// FNV-1a over every field of every decision record.
std::uint64_t hash_log(const std::vector<cluster::DecisionRecord>& log) {
    Fnv1a mix;
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    for (const auto& d : log) {
        mix(d.seq);
        mix(bits(d.time));
        mix(bits(d.window_opened));
        mix(d.event_declared ? 1 : 0);
        mix(d.has_location ? 1 : 0);
        mix(bits(d.location.x));
        mix(bits(d.location.y));
        mix(bits(d.weight_reporters));
        mix(bits(d.weight_silent));
        mix(d.n_reporters);
    }
    return mix.h;
}

template <typename Result>
std::string pin_line(const Result& r, const std::vector<cluster::DecisionRecord>& log) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "acc=%a det=%zu tic=%a tif=%a chk=%zu div=%zu n=%zu h=%016llx",
                  r.accuracy, r.detected, r.mean_ti_correct, r.mean_ti_faulty,
                  r.checked_decisions, r.oracle_divergences, log.size(),
                  static_cast<unsigned long long>(hash_log(log)));
    return buf;
}

inject::CampaignSpec degrade_onset_shift() {
    inject::CampaignSpec c;
    net::ChannelFaultWindow w;
    w.start = 60.0;
    w.end = 160.0;
    w.extra_drop = 0.3;
    w.duplicate_probability = 0.1;
    w.delay_jitter = 0.05;
    c.degradations.push_back(w);
    c.compromises.push_back({120.0, 0.7});
    c.fault_shifts.push_back({200.0, 0.9, 0.4});
    return c;
}

/// One pinned run: a small binary (40 events, half faulty) or location
/// (30 events, 40% faulty, rotation every 10) scenario, the layers the
/// case turns on, the expected pin line and the expected counters line.
struct Case {
    const char* name;
    bool binary;
    std::uint64_t seed;
    void (*turn_on)(Scenario&);
    const char* expected;
    const char* counters;
};

const Case kCases[] = {
    {"binary_plain", true, 11, [](Scenario&) {},
     "acc=0x1p+0 det=40 tic=0x1.debeed89c36cbp-1 tif=0x1.022a65eee6749p-3"
     " chk=40 div=0 n=40 h=b7ffbf4efc2994ec",
     "counters=19 h=395ecb4ac94ee8eb"},
    {"binary_baseline", true, 12,
     [](Scenario& s) { s.engine.policy = core::DecisionPolicy::MajorityVote; },
     "acc=0x1p+0 det=40 tic=0x1p+0 tif=0x1p+0"
     " chk=40 div=0 n=40 h=5fd2d1be39753602",
     "counters=19 h=901ab3642439c346"},
    {"binary_false_alarms", true, 13,
     [](Scenario& s) { s.faults.false_alarm_rate = 0.3; },
     "acc=0x1p+0 det=40 tic=0x1.e8a765719ac26p-1 tif=0x1.528cc8e2edb96p-5"
     " chk=78 div=0 n=78 h=a73dcc4bc452d817",
     "counters=19 h=410eb8ac84468b41"},
    {"binary_shadows_corrupt_ch", true, 14,
     [](Scenario& s) {
         s.binary.use_shadows = true;
         s.binary.corrupt_ch = true;
     },
     "acc=0x1p+0 det=40 tic=0x1.d810bbbec0118p-1 tif=0x1.e71869b4cb54bp-4"
     " chk=40 div=0 n=40 h=4ba57c138550b7fc",
     "counters=19 h=1f300dfe4db8bcdf"},
    {"binary_reliable_warm_failover", true, 15,
     [](Scenario& s) {
         s.binary.reliable_reports = true;
         s.faults.false_alarm_rate = 0.2;
         s.campaign.failovers.push_back({150.0, 300.0, true});
     },
     "acc=0x1p+0 det=40 tic=0x1.ea8df0c3549e6p-1 tif=0x1.65da8abe4e025p-4"
     " chk=70 div=0 n=70 h=d6053c9b5c1da5b5",
     "counters=22 h=633547391a0a9d17"},
    {"binary_cold_failover", true, 16,
     [](Scenario& s) { s.campaign.failovers.push_back({150.0, -1.0, false}); },
     "acc=0x1p+0 det=40 tic=0x1.cd4ab70c2ef1dp-1 tif=0x1.303a77f54ab22p-2"
     " chk=40 div=0 n=40 h=74706abc6dd04a11",
     "counters=22 h=3dd4577760789d7b"},
    {"binary_campaign", true, 17,
     [](Scenario& s) {
         s.binary.pct_faulty = 0.3;
         s.campaign = degrade_onset_shift();
     },
     "acc=0x1.a8p-1 det=29 tic=0x1.fdbba442f37c5p-2 tif=0x1.36ed8aca2439fp-4"
     " chk=63 div=0 n=63 h=b038c51dc51cf37b",
     "counters=25 h=5b3ca3157a6ace47"},
    {"binary_reliable_campaign", true, 18,
     [](Scenario& s) {
         s.binary.reliable_reports = true;
         s.campaign = degrade_onset_shift();
     },
     "acc=0x1.ea5dbf193d4bbp-1 det=37 tic=0x1.8f251b349b905p-1 tif=0x1.b11bddeb27f33p-5"
     " chk=71 div=0 n=71 h=b2b1573599ca5e91",
     "counters=25 h=773378ea30e5e7e6"},
    {"location_l0", false, 21, [](Scenario&) {},
     "acc=0x1.999999999999ap-1 det=24 tic=0x1.dc42ae767ec46p-1 tif=0x1.356c94a9bc1f6p-1"
     " chk=77 div=0 n=77 h=21ad7938abde3827",
     "counters=19 h=187cf3c6c6ea00a5"},
    {"location_l1", false, 22,
     [](Scenario& s) { s.location.fault_level = sensor::NodeClass::Level1; },
     "acc=0x1.eeeeeeeeeeeefp-1 det=29 tic=0x1.f7b155d87f4e3p-1 tif=0x1.3bac9f45ec1dap-1"
     " chk=64 div=0 n=64 h=f58c7ff6ec8d854a",
     "counters=19 h=dc0445a9c4849078"},
    {"location_l2_collusion_defense", false, 23,
     [](Scenario& s) {
         s.location.fault_level = sensor::NodeClass::Level2;
         s.engine.collusion_defense = true;
     },
     "acc=0x1.bbbbbbbbbbbbcp-1 det=26 tic=0x1.ca8cfe3431006p-1 tif=0x1.540e9cb476134p-1"
     " chk=45 div=0 n=45 h=8da33d98c0bf932b",
     "counters=19 h=278e84677f0a6e87"},
    {"location_weighted", false, 24,
     [](Scenario& s) { s.engine.trust_weighted_location = true; },
     "acc=0x1.ccccccccccccdp-1 det=27 tic=0x1.ed74bf3d15002p-1 tif=0x1.512bdb6f8380ep-1"
     " chk=68 div=0 n=68 h=b8cfb8e432286172",
     "counters=19 h=3d750ada5f625f18"},
    {"location_multihop", false, 25,
     [](Scenario& s) {
         s.location.multihop = true;
         s.location.radio_range = 25.0;
     },
     "acc=0x1.eeeeeeeeeeeefp-1 det=29 tic=0x1.e773af61b9c8bp-1 tif=0x1.4f889ac2559cap-1"
     " chk=64 div=0 n=64 h=db4a788d067b0cec",
     "counters=19 h=0a8405c9a6b9f6b2"},
    {"location_mobile_multihop", false, 26,
     [](Scenario& s) {
         s.location.mobile = true;
         s.location.multihop = true;
     },
     "acc=0x1.eeeeeeeeeeeefp-1 det=29 tic=0x1.ea473ad9f8a7p-1 tif=0x1.4337e72e24d52p-1"
     " chk=66 div=0 n=66 h=62991b57f9cb89a9",
     "counters=19 h=bb6726eec96d3763"},
    {"location_decay", false, 27,
     [](Scenario& s) {
         s.location.decay = true;
         s.location.decay_initial = 0.05;
         s.location.decay_step = 0.2;
         s.location.decay_final = 0.45;
         s.location.decay_epoch_events = 10;
         s.location.epoch_events = 10;
     },
     "acc=0x1.eeeeeeeeeeeefp-1 det=29 tic=0x1.eb0178753c1bap-1 tif=0x1.8753dfc1f8decp-1"
     " chk=52 div=0 n=52 h=29a3ae7a23c3aa09",
     "counters=19 h=53ff9277eee2fb46"},
    {"location_burst_airtime_jitter", false, 28,
     [](Scenario& s) {
         s.location.burst = 2;
         s.channel.airtime = 2e-4;
         s.location.tx_jitter = 0.05;
     },
     "acc=0x1.8888888888889p-1 det=23 tic=0x1.e006dabdaa91dp-1 tif=0x1.ae60a20979542p-1"
     " chk=65 div=0 n=65 h=d38210da4e5f4330",
     "counters=19 h=ab97b2980e0ad19c"},
    {"location_random_layout", false, 29,
     [](Scenario& s) { s.location.grid_layout = false; },
     "acc=0x1.ddddddddddddep-1 det=28 tic=0x1.e932622edd71ap-1 tif=0x1.3eaf82e95a903p-1"
     " chk=69 div=0 n=69 h=d30749cdb73791f3",
     "counters=19 h=5b6be48f330f6bea"},
    {"location_l1_campaign", false, 31,
     [](Scenario& s) {
         s.location.fault_level = sensor::NodeClass::Level1;
         s.campaign = degrade_onset_shift();
     },
     "acc=0x1.4444444444444p-1 det=19 tic=0x1.b8f453c1e693ep-1 tif=0x1.6ecf42d671a09p-1"
     " chk=74 div=0 n=74 h=57914cb23caa7385",
     "counters=25 h=0d21f835a2e2d941"},
    {"location_campaign", false, 30,
     [](Scenario& s) {
         s.location.pct_faulty = 0.2;
         s.campaign = degrade_onset_shift();
     },
     "acc=0x1.6666666666666p-1 det=21 tic=0x1.c89a786dcba9ep-1 tif=0x1.9cd0abfcad87cp-1"
     " chk=66 div=0 n=66 h=78409b5401890793",
     "counters=25 h=ba1c93224b6e76c9"},
};

std::string run_pinned(const Case& c, obs::Recorder* recorder = nullptr) {
    Scenario s = c.binary ? Scenario::binary_defaults() : Scenario::location_defaults();
    s.seed = c.seed;
    s.recorder = recorder;
    if (c.binary) {
        s.binary.events = 40;
        s.binary.pct_faulty = 0.5;
    } else {
        s.location.events = 30;
        s.location.pct_faulty = 0.4;
    }
    s.location.rotation_period = 10;
    s.check.mode = check::Mode::Shadow;
    s.keep_decisions = true;
    c.turn_on(s);
    if (c.binary) {
        const BinaryResult r = run_binary_experiment(s);
        return pin_line(r, r.decisions);
    }
    const LocationResult r = run_location_experiment(s);
    return pin_line(r, r.decisions);
}

TEST(WorldPin, MatrixIsBitIdentical) {
    for (const Case& c : kCases) EXPECT_EQ(run_pinned(c), c.expected) << c.name;
}

/// The number of counters a run registered and an FNV-1a hash of every
/// (name, value) pair, in name order.
std::string counters_line(const obs::Registry& metrics) {
    obs::MemorySink sink;
    metrics.emit(sink);
    Fnv1a mix;
    for (const auto& [name, value] : sink.counters) {
        mix(name);
        mix(value);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "counters=%zu h=%016llx", sink.counters.size(),
                  static_cast<unsigned long long>(mix.h));
    return buf;
}

TEST(WorldPin, PublishedCountersAreBitIdentical) {
    for (const Case& c : kCases) {
        obs::Recorder rec;
        EXPECT_EQ(run_pinned(c, &rec), c.expected) << c.name;
        EXPECT_EQ(counters_line(rec.metrics()), c.counters) << c.name;
    }
}

/// FNV-1a over each LEACH round's heads and alive count.
std::uint64_t hash_rounds(const std::vector<cluster::RoundRecord>& rounds) {
    Fnv1a mix;
    for (const auto& r : rounds) {
        mix(r.heads.size());
        for (const auto head : r.heads) mix(head);
        mix(r.alive);
    }
    return mix.h;
}

/// The LEACH case: 100 lattice nodes, 40% level-0, NER 0.01, 30 events
/// and a round every 50 s on a budget that lets each head's uplink drain
/// it. The line was pinned from the standalone LEACH deployment that
/// location.clustering = leach replaced.
LocationResult run_leach_pinned(check::Mode mode, obs::Recorder* recorder = nullptr) {
    Scenario s = Scenario::location_defaults();
    s.seed = 32;
    s.recorder = recorder;
    s.location.events = 30;
    s.location.pct_faulty = 0.4;
    s.faults.natural_error_rate = 0.01;
    s.location.clustering = Clustering::Leach;
    s.location.leach = {0.1, 50.0, 0.005};
    s.check.mode = mode;
    s.keep_decisions = true;
    return run_location_experiment(s);
}

std::string leach_pin_line(const LocationResult& r) {
    char rounds[64];
    std::snprintf(rounds, sizeof rounds, " rounds=%zu r=%016llx", r.rounds.size(),
                  static_cast<unsigned long long>(hash_rounds(r.rounds)));
    return pin_line(r, r.decisions) + rounds;
}

constexpr const char* kLeachPin =
    "acc=0x1.ccccccccccccdp-1 det=27 tic=0x1.ef89364d04ab3p-1 tif=0x1.cbb06472194dap-1"
    " chk=0 div=0 n=101 h=c7104de748a7d250 rounds=6 r=a74fbdb590d6adf0";

TEST(WorldPin, LeachIsBitIdentical) {
    EXPECT_EQ(leach_pin_line(run_leach_pinned(check::Mode::Off)), kLeachPin);
}

/// With the oracle off, no check.* counter is registered.
constexpr const char* kLeachCounters = "counters=17 h=2eba91599d8fa78c";

TEST(WorldPin, LeachPublishedCountersAreBitIdentical) {
    obs::Recorder rec;
    EXPECT_EQ(leach_pin_line(run_leach_pinned(check::Mode::Off, &rec)), kLeachPin);
    EXPECT_EQ(counters_line(rec.metrics()), kLeachCounters);
}

TEST(WorldPin, LeachShadowTwinIsDivergenceFree) {
    LocationResult r = run_leach_pinned(check::Mode::Shadow);
    EXPECT_GT(r.checked_decisions, 0u);
    EXPECT_EQ(r.oracle_divergences, 0u);
    r.checked_decisions = 0;
    EXPECT_EQ(leach_pin_line(r), kLeachPin);
}

}  // namespace
}  // namespace tibfit::exp
