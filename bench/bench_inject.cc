// bench_inject — fault-injection campaign curves (tibfit::inject).
//
// Table A (graceful degradation): binary-model accuracy vs. injected extra
// channel loss, with reports sent plain (a lost report is simply gone) vs.
// over the ack/retry relay transport (bounded retransmission). The
// injected loss rides a campaign degradation window on the channel's
// dedicated fault stream, so the 0.0 row is byte-identical to an
// uninjected run.
//
// Table B (failover): accuracy across a mid-run cluster-head crash while
// faulty nodes raise coordinated false alarms, for no failover, warm
// handoff (successor restores the victim's trust checkpoint) and cold
// handoff (successor starts with a fresh table). The warm column
// quantifies what core::TrustManager checkpointing buys: a fresh table
// treats every liar as trustworthy again, so false alarms sail through
// until the trust deficit is relearned.
//
// With campaign=FILE, additionally replays a JSON inject::CampaignSpec
// (ci/campaign_smoke.json is the canned one the CI smoke job uses) through
// one instrumented run and emits its decision counters.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/sweep.h"
#include "inject/campaign.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "util/table.h"

namespace {

// The whole-run degradation window for Table A (any end past the last
// event works; the window just has to cover the run).
constexpr double kWholeRun = 1e9;

tibfit::inject::CampaignSpec loss_campaign(double extra_drop) {
    tibfit::inject::CampaignSpec spec;
    tibfit::net::ChannelFaultWindow w;
    w.start = 0.0;
    w.end = kWholeRun;
    w.extra_drop = extra_drop;
    spec.degradations.push_back(w);
    return spec;
}

// The Table-B campaign: the CH crash coincides with a channel degradation
// window (think jamming around a physical attack). Under loss the silent
// side of every real-event vote fills with dropped-correct nodes AND the
// still-trusted-looking liars — a cold successor weighs those liars at
// TI 1 and starts missing events, while a warm successor's checkpoint
// discounts them.
tibfit::inject::CampaignSpec failover_campaign(double kill_at, bool warm, double degrade) {
    tibfit::inject::CampaignSpec spec;
    tibfit::inject::ChFailover f;
    f.kill_at = kill_at;
    f.warm_handoff = warm;
    spec.failovers.push_back(f);
    if (degrade > 0.0) {
        tibfit::net::ChannelFaultWindow w;
        w.start = kill_at;
        w.end = kWholeRun;
        w.extra_drop = degrade;
        spec.degradations.push_back(w);
    }
    return spec;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_inject", argc, argv);
    io.describe(
        "Fault-injection campaigns: accuracy vs injected loss (plain vs reliable "
        "transport) and accuracy across a CH failover (warm vs cold trust handoff)");

    const auto events = static_cast<std::size_t>(io.option("events", 100, "real events per run"));
    const auto seed = static_cast<std::uint64_t>(io.option("seed", 20050628, "base seed"));
    const double false_alarm_rate =
        io.option("false_alarm_rate", 0.35, "liar false-alarm rate (Table B)");
    const double degrade =
        io.option("degrade", 0.45, "extra channel drop during the failover window (Table B)");
    const bool smoke = io.option("smoke", false, "CI smoke mode: tiny grids, few runs");
    const std::string campaign_path =
        io.option("campaign", "", "replay a JSON inject::CampaignSpec file");
    if (io.help_requested()) {
        io.print_help();
        return 0;
    }
    const std::size_t runs = io.trial_runs(smoke ? 3 : 25);

    exp::Scenario base = exp::Scenario::binary_defaults();
    base.binary.events = events;
    base.seed = seed;

    // ---- Table A: accuracy vs injected extra loss ----
    const std::vector<double> losses =
        smoke ? std::vector<double>{0.0, 0.4} : std::vector<double>{0.0, 0.2, 0.4, 0.6, 0.8};
    std::vector<exp::Scenario> cells;
    for (double loss : losses) {
        exp::Scenario s = base;
        s.campaign = loss_campaign(loss);
        for (bool reliable : {false, true}) {
            s.binary.reliable_reports = reliable;
            cells.push_back(s);
        }
    }
    const std::vector<double> loss_acc = exp::mean_accuracies(cells, runs);
    util::Table a("Injected channel loss: plain vs reliable report transport");
    a.header({"extra loss", "plain", "reliable"});
    auto cell = loss_acc.begin();
    for (double loss : losses) {
        std::vector<double> row{loss};
        for (int c = 0; c < 2; ++c) row.push_back(*cell++);
        a.row_values(row, 3);
    }
    io.emit(a);

    // ---- Table B: accuracy across a CH failover ----
    // Kill the CH halfway through, after trust has been learned; liars
    // raise coordinated false alarms, so the successor's trust table is
    // what separates declared events from phantoms.
    const double kill_at = 0.5 * static_cast<double>(events) * base.binary.event_interval;
    exp::Scenario fb = base;
    fb.faults.false_alarm_rate = false_alarm_rate;
    const std::vector<double> pcts =
        smoke ? std::vector<double>{0.4} : std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    cells.clear();
    for (double p : pcts) {
        exp::Scenario s = fb;
        s.binary.pct_faulty = p;
        cells.push_back(s);  // no campaign
        for (bool warm : {true, false}) {
            exp::Scenario f = s;
            f.campaign = failover_campaign(kill_at, warm, degrade);
            cells.push_back(f);
        }
    }
    const std::vector<double> failover_acc = exp::mean_accuracies(cells, runs);
    util::Table b("CH failover + degraded channel: warm (checkpointed trust) vs cold handoff");
    b.header({"% faulty", "no failover", "warm handoff", "cold handoff"});
    cell = failover_acc.begin();
    for (double p : pcts) {
        std::vector<double> row{100.0 * p};
        for (int c = 0; c < 3; ++c) row.push_back(*cell++);
        b.row_values(row, 3);
    }
    io.emit(b);

    // ---- Optional: replay a canned campaign spec from JSON ----
    exp::Scenario replay = fb;
    bool have_replay = false;
    if (!campaign_path.empty()) {
        std::ifstream in(campaign_path);
        if (!in) {
            std::cerr << "bench_inject: cannot open campaign file " << campaign_path << '\n';
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        replay.campaign = inject::campaign_from_json(obs::json::parse(text.str()));
        replay.binary.pct_faulty = 0.4;
        replay.binary.reliable_reports = true;
        const auto errors = replay.validate();
        if (!errors.empty()) {
            for (const auto& e : errors) std::cerr << "bench_inject: " << e << '\n';
            return 1;
        }
        have_replay = true;

        exp::BinaryResult r = exp::run_binary_experiment(replay);
        util::Table c("Campaign replay: " + campaign_path);
        c.header({"accuracy", "detected", "fa windows", "phantoms"});
        c.row_values({r.accuracy, static_cast<double>(r.detected),
                      static_cast<double>(r.false_alarm_windows),
                      static_cast<double>(r.phantoms_declared)},
                     3);
        io.emit(c);
    }

    io.params().set("events", static_cast<long>(events)).set("pct_faulty", 0.4);
    // Representative instrumented run: the warm-handoff failover arm (or
    // the replayed campaign when one was given), so the artifact's registry
    // carries the inject.* counters the CI golden gates on.
    exp::Scenario rep = have_replay ? replay : fb;
    if (!have_replay) {
        rep.binary.pct_faulty = 0.4;
        rep.campaign = failover_campaign(kill_at, true, degrade);
    }
    return io.finish(rep);
}
