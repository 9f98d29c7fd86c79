// Unit tests for the observability layer: registry semantics, sinks, the
// JSON writer/parser pair, trace JSONL round-trips, and the bench run
// artifact document.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "exp/binary_experiment.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/table.h"

namespace tibfit {
namespace {

TEST(Registry, FindOrCreateReturnsStableReferences) {
    obs::Registry r;
    obs::Counter& c1 = r.counter("a.b");
    c1.inc();
    obs::Counter& c2 = r.counter("a.b");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 1u);

    // References survive unrelated insertions (map-backed storage).
    for (int i = 0; i < 100; ++i) r.counter("filler." + std::to_string(i));
    c1.inc(2);
    EXPECT_EQ(r.counter("a.b").value(), 3u);
}

TEST(Registry, GaugeSetAndHighWater) {
    obs::Registry r;
    obs::Gauge& g = r.gauge("g");
    g.set(5.0);
    g.set_max(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
    g.set_max(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    g.set(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Registry, HistogramLayoutFixedAtCreation) {
    obs::Registry r;
    obs::HistogramMetric& h = r.histogram("h", 0.0, 10.0, 10);
    h.observe(2.5);
    // A second lookup with different bounds returns the original layout.
    obs::HistogramMetric& again = r.histogram("h", -1.0, 1.0, 2);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.count(), 1u);
    EXPECT_DOUBLE_EQ(again.stats().mean(), 2.5);
}

TEST(Registry, FindWithoutCreation) {
    obs::Registry r;
    EXPECT_EQ(r.find_counter("missing"), nullptr);
    r.counter("present").inc(4);
    ASSERT_NE(r.find_counter("present"), nullptr);
    EXPECT_EQ(r.find_counter("present")->value(), 4u);
    EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, MemorySinkSnapshot) {
    obs::Registry r;
    r.counter("c").inc(7);
    r.gauge("g").set(0.5);
    r.histogram("h", 0.0, 1.0, 4).observe(0.25);
    r.histogram("h", 0.0, 1.0, 4).observe(0.75);

    obs::MemorySink sink;
    r.emit(sink);
    EXPECT_EQ(sink.counters.at("c"), 7u);
    EXPECT_DOUBLE_EQ(sink.gauges.at("g"), 0.5);
    EXPECT_EQ(sink.histogram_counts.at("h"), 2u);
}

TEST(Registry, SummaryListsEveryMetric) {
    obs::Registry r;
    r.counter("alpha").inc();
    r.gauge("beta").set(2.0);
    r.histogram("gamma", 0.0, 1.0, 2).observe(0.5);
    std::ostringstream os;
    r.write_summary(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
    EXPECT_NE(s.find("gamma"), std::string::npos);
}

TEST(Registry, JsonRoundTrip) {
    obs::Registry r;
    r.counter("hits").inc(42);
    r.gauge("ratio").set(0.125);
    auto& h = r.histogram("lat", 0.0, 4.0, 4);
    h.observe(1.0);
    h.observe(3.0);

    std::ostringstream os;
    obs::json::Writer w(os);
    r.write_json(w);

    const auto doc = obs::json::parse(os.str());
    EXPECT_DOUBLE_EQ(doc.find("counters")->number_or("hits", -1), 42.0);
    EXPECT_DOUBLE_EQ(doc.find("gauges")->number_or("ratio", -1), 0.125);
    const auto* lat = doc.find("histograms")->find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_DOUBLE_EQ(lat->number_or("count", -1), 2.0);
    EXPECT_DOUBLE_EQ(lat->number_or("mean", -1), 2.0);
    EXPECT_EQ(lat->find("bins")->as_array().size(), 4u);
}

TEST(JsonWriter, EscapesAndNests) {
    std::ostringstream os;
    obs::json::Writer w(os);
    w.begin_object().field("text", "a\"b\\c\n").key("arr").begin_array();
    w.value(1).value(true).value_null();
    w.end_array().end_object();
    const auto doc = obs::json::parse(os.str());
    EXPECT_EQ(doc.find("text")->as_string(), "a\"b\\c\n");
    ASSERT_EQ(doc.find("arr")->as_array().size(), 3u);
    EXPECT_TRUE(doc.find("arr")->as_array()[2].is_null());
}

TEST(JsonParser, RejectsNestingDeeperThan256) {
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(obs::json::parse(nested(256)).is_array());
    EXPECT_THROW(obs::json::parse(nested(257)), std::runtime_error);
    // Deep enough to overflow the stack of a parser without the bound.
    EXPECT_THROW(obs::json::parse(std::string(1000000, '[')), std::runtime_error);
    std::string objects;
    for (int i = 0; i < 200000; ++i) objects += R"({"a":)";
    EXPECT_THROW(obs::json::parse(objects), std::runtime_error);
}

TEST(Trace, DisabledLogAppendsNothing) {
    obs::TraceLog log;
    log.append(1.0, obs::EventInjected{});
    EXPECT_EQ(log.size(), 0u);
    log.set_enabled(true);
    log.append(2.0, obs::EventInjected{});
    EXPECT_EQ(log.size(), 1u);
}

TEST(Trace, JsonlRoundTripPreservesEveryRecordKind) {
    obs::TraceLog log;
    log.set_enabled(true);
    log.append(1.0, obs::EventInjected{7, 12.5, 33.25, 9});
    log.append(1.5, obs::ReportReceived{3, 100, true, false});
    log.append(1.5, obs::ReportDropped{4, 100, obs::DropReason::Collision});
    log.append(2.0, obs::WindowOpened{100, 3});
    log.append(3.0, obs::DecisionMade{100, 5, true, true, 12.0, 34.0, 6.5, 1.25, 4, 0.5});
    log.append(3.0, obs::TrustUpdated{4, true, 0.9, 0.914});
    log.append(4.0, obs::ChFailed{100, 101, true, 9});
    log.append(4.5, obs::ReportDropped{5, 101, obs::DropReason::Injected});

    std::ostringstream os;
    log.write_jsonl(os);
    std::istringstream is(os.str());
    const auto records = obs::read_trace_jsonl(is);
    ASSERT_EQ(records.size(), 8u);

    const auto& ev = std::get<obs::EventInjected>(records[0].data);
    EXPECT_EQ(ev.event_id, 7u);
    EXPECT_DOUBLE_EQ(ev.x, 12.5);
    EXPECT_EQ(ev.n_neighbours, 9u);

    const auto& drop = std::get<obs::ReportDropped>(records[2].data);
    EXPECT_EQ(drop.reason, obs::DropReason::Collision);

    const auto& dec = std::get<obs::DecisionMade>(records[4].data);
    EXPECT_EQ(dec.decision_seq, 5u);
    EXPECT_TRUE(dec.event_declared);
    EXPECT_DOUBLE_EQ(dec.weight_reporters, 6.5);
    EXPECT_DOUBLE_EQ(dec.latency, 0.5);

    const auto& tu = std::get<obs::TrustUpdated>(records[5].data);
    EXPECT_TRUE(tu.penalty);
    EXPECT_DOUBLE_EQ(tu.ti, 0.914);

    const auto& failed = std::get<obs::ChFailed>(records[6].data);
    EXPECT_EQ(failed.old_ch, 100u);
    EXPECT_EQ(failed.new_ch, 101u);
    EXPECT_TRUE(failed.warm);
    EXPECT_EQ(failed.checkpointed_nodes, 9u);
    EXPECT_EQ(records[6].time, 4.0);
    EXPECT_EQ(records[6].seq, 6u);

    EXPECT_EQ(std::get<obs::ReportDropped>(records[7].data).reason, obs::DropReason::Injected);

    // Writing the records read back reproduces the stream byte for byte.
    obs::TraceLog again;
    again.set_enabled(true);
    for (const auto& r : records) again.append(r.time, r.data);
    std::ostringstream os2;
    again.write_jsonl(os2);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(Trace, ReaderRejectsSchemaMismatch) {
    std::istringstream is(R"({"type":"trace_header","schema":999,"source":"tibfit::obs"})");
    EXPECT_THROW(obs::read_trace_jsonl(is), std::runtime_error);
}

// Every field reads by the scenario codec's rules: a wrong-typed,
// fractional, negative or out-of-range value throws naming field and line.
TEST(Trace, ReaderRejectsBadFields) {
    const std::string header = R"({"type":"trace_header","schema":1,"source":"tibfit::obs"})";
    const struct {
        const char* record;
        const char* needle;
    } cases[] = {
        {R"({"type":"event_injected","t":"late","seq":0})", "line 2: t expects a finite number"},
        {R"({"type":"report_received","t":0,"seq":0,"positive":"yes"})",
         "line 2: positive expects true or false"},
        {R"({"type":"window_opened","t":0,"seq":-5})", "line 2: seq expects an integer"},
        {R"({"type":"report_received","t":0,"seq":0,"ch":-1})", "line 2: ch expects an integer"},
        {R"({"type":"decision_made","t":0,"seq":0,"n_reporters":2.5})",
         "line 2: n_reporters expects an integer"},
        {R"({"type":"report_received","t":0,"seq":0,"reporter":4294967296})",
         "line 2: reporter expects an integer in [0, 4294967295]"},
        {R"({"type":"report_received","t":0,"seq":0,"reporter":1e30})",
         "line 2: reporter expects an integer"},
        {R"({"type":"event_injected","t":0,"seq":0,"event_id":9007199254740994})",
         "line 2: event_id expects an integer in [0, 9007199254740992]"},
        {R"({"type":"report_dropped","t":0,"seq":0,"reason":"gremlins"})",
         "line 2: reason expects one of natural|out_of_range|collision|injected"},
        {R"({"type":"ch_failed","t":0,"seq":0,"warm":1})", "line 2: warm expects true or false"},
        {R"({"type":7,"t":0,"seq":0})", "line 2: type expects a string"},
    };
    for (const auto& c : cases) {
        std::istringstream is(header + "\n" + c.record + "\n");
        try {
            obs::read_trace_jsonl(is);
            ADD_FAILURE() << "accepted " << c.record;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
                << c.record << ": " << e.what();
        }
    }
    std::istringstream huge_schema(R"({"type":"trace_header","schema":1e300})");
    try {
        obs::read_trace_jsonl(huge_schema);
        ADD_FAILURE() << "accepted schema 1e300";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 1: schema"), std::string::npos) << e.what();
    }
    // Missing fields keep their defaults; unknown ones are ignored.
    std::istringstream sparse(header + "\n" +
                              R"({"type":"ch_failed","seq":3,"note":"x","old_ch":4})");
    const auto records = obs::read_trace_jsonl(sparse);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].time, 0.0);
    EXPECT_EQ(records[0].seq, 3u);
    EXPECT_EQ(std::get<obs::ChFailed>(records[0].data).old_ch, 4u);
    EXPECT_FALSE(std::get<obs::ChFailed>(records[0].data).warm);
}

TEST(Trace, ReaderRejectsUnknownRecordType) {
    std::istringstream is(
        "{\"type\":\"trace_header\",\"schema\":1,\"source\":\"tibfit::obs\"}\n"
        "{\"type\":\"wat\",\"t\":0,\"seq\":0}\n");
    EXPECT_THROW(obs::read_trace_jsonl(is), std::runtime_error);
}

TEST(Artifact, CarriesMetricsParamsAndTables) {
    obs::Recorder rec;
    exp::Scenario cfg = exp::Scenario::binary_defaults();
    cfg.binary.events = 30;
    cfg.binary.pct_faulty = 0.4;
    cfg.seed = 3;
    cfg.recorder = &rec;
    exp::run_binary_experiment(cfg);

    const std::map<std::string, std::string> params = {{"events", "30"}, {"pct_faulty", "0.4"}};
    util::Table t("demo");
    t.header({"k", "v"});
    t.row({"x", "1"});

    obs::ArtifactMeta meta;
    meta.name = "obs_test";
    meta.argv = {"obs_test", "--json", "out.json"};
    std::ostringstream os;
    obs::write_run_artifact(os, meta, rec.metrics(), params, {&t});

    const auto doc = obs::json::parse(os.str());
    EXPECT_DOUBLE_EQ(doc.number_or("schema", -1), obs::kArtifactSchemaVersion);
    EXPECT_EQ(doc.string_or("name", ""), "obs_test");
    EXPECT_EQ(doc.find("argv")->as_array().size(), 3u);
    EXPECT_EQ(doc.find("params")->string_or("events", ""), "30");

    // The acceptance bar: at least 10 distinct named metrics, including
    // the channel/transport/latency/trust headliners.
    const auto& m = *doc.find("metrics");
    const std::size_t n_metrics = m.find("counters")->as_object().size() +
                                  m.find("gauges")->as_object().size() +
                                  m.find("histograms")->as_object().size();
    EXPECT_GE(n_metrics, 10u);
    EXPECT_NE(m.find("counters")->find(obs::metric::kChannelDropped), nullptr);
    EXPECT_NE(m.find("counters")->find(obs::metric::kTransportRetransmissions), nullptr);
    EXPECT_NE(m.find("histograms")->find(obs::metric::kClusterDecisionLatency), nullptr);
    EXPECT_NE(m.find("gauges")->find(obs::metric::kExpMeanTi), nullptr);

    // The instrumented run actually moved the needles.
    EXPECT_GT(m.find("counters")->number_or(obs::metric::kClusterDecisions, 0), 0.0);
    EXPECT_GT(m.find("gauges")->number_or(obs::metric::kExpMeanTi, 0), 0.0);

    const auto& tables = doc.find("tables")->as_array();
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].string_or("title", ""), "demo");
}

TEST(Artifact, BuildRevisionIsNonEmpty) {
    EXPECT_FALSE(obs::build_revision().empty());
}

TEST(RegistryMerge, CountersAddAndMissingMetricsAreCreated) {
    obs::Registry a, b;
    a.counter("x").inc(2);
    b.counter("x").inc(3);
    b.counter("only_b").inc(7);
    a.merge(b);
    EXPECT_EQ(a.find_counter("x")->value(), 5u);
    ASSERT_NE(a.find_counter("only_b"), nullptr);
    EXPECT_EQ(a.find_counter("only_b")->value(), 7u);
}

TEST(RegistryMerge, GaugeSemanticsFollowWriteMode) {
    obs::Registry a, b, c;
    // Plain gauges: last write wins, like sequential runs sharing a gauge.
    a.gauge("acc").set(0.5);
    b.gauge("acc").set(0.8);
    // High-water gauges: max-combine.
    a.gauge("hw").set_max(10.0);
    b.gauge("hw").set_max(4.0);
    // Untouched gauges must not clobber real values.
    c.gauge("acc");
    a.merge(b);
    a.merge(c);
    EXPECT_EQ(a.find_gauge("acc")->value(), 0.8);
    EXPECT_EQ(a.find_gauge("hw")->value(), 10.0);
}

TEST(RegistryMerge, HistogramsCombineBinWise) {
    obs::Registry a, b;
    a.histogram("h", 0.0, 10.0, 5).observe(1.0);
    b.histogram("h", 0.0, 10.0, 5).observe(1.5);
    b.histogram("h", 0.0, 10.0, 5).observe(42.0);  // overflow
    a.merge(b);
    const auto* h = a.find_histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 3u);
    EXPECT_EQ(h->bins().bin_count(0), 2u);
    EXPECT_EQ(h->bins().overflow(), 1u);
    EXPECT_NEAR(h->stats().mean(), (1.0 + 1.5 + 42.0) / 3.0, 1e-12);
    EXPECT_EQ(h->stats().max(), 42.0);
}

TEST(RegistryMerge, HistogramJsonCarriesUnderOverflow) {
    obs::Registry r;
    auto& h = r.histogram("lat", 0.0, 1.0, 4);
    h.observe(-0.5);
    h.observe(0.25);
    h.observe(3.0);
    std::ostringstream os;
    obs::json::Writer w(os, 0);
    r.write_json(w);
    const auto doc = obs::json::parse(os.str());
    const auto* hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const auto* hist = hists->find("lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->number_or("underflow", -1.0), 1.0);
    EXPECT_EQ(hist->number_or("overflow", -1.0), 1.0);
    EXPECT_EQ(hist->number_or("count", -1.0), 3.0);
}

}  // namespace
}  // namespace tibfit
