// Extension bench — network lifetime under CH rotation (the reason the
// paper adopts LEACH: "These properties help spread energy usage equally
// throughout the network").
//
// A self-organizing network (location.clustering = leach) runs on small
// batteries until most of the network dies. Rotating leadership (higher
// ch_fraction = shorter average leaderships per node) spreads the expensive
// CH duty; the table reports when the first node dies and when half the
// network is gone, plus how evenly the duty was spread (leaderships served,
// min..max across nodes).
#include <algorithm>
#include <map>
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "util/table.h"

namespace {

using namespace tibfit;

constexpr std::size_t kNodes = 64;
constexpr std::size_t kRounds = 220;

struct Lifetime {
    std::size_t first_death_round = 0;
    std::size_t half_dead_round = 0;
    std::size_t min_led = 0;
    std::size_t max_led = 0;
};

Lifetime run(double ch_fraction, std::uint64_t seed) {
    exp::Scenario s = exp::Scenario::location_defaults();
    s.seed = seed;
    s.faults.natural_error_rate = 0.01;
    s.location.n_nodes = kNodes;
    s.location.pct_faulty = 0.0;
    // Six events 10 s apart per 60 s round: the horizon is kRounds rounds.
    s.location.events = kRounds * 6;
    s.location.clustering = exp::Clustering::Leach;
    s.location.leach = {ch_fraction, 60.0, 0.05};  // starvation budget: lifetimes show
    const exp::LocationResult result = exp::run_location_experiment(s);

    Lifetime life;
    std::map<sim::ProcessId, std::size_t> led;
    for (std::size_t round = 0; round < result.rounds.size(); ++round) {
        const cluster::RoundRecord& r = result.rounds[round];
        for (auto h : r.heads) ++led[h];
        if (life.first_death_round == 0 && r.alive < kNodes) life.first_death_round = round;
        if (life.half_dead_round == 0 && r.alive <= kNodes / 2) life.half_dead_round = round;
    }
    if (life.first_death_round == 0) life.first_death_round = kRounds;
    if (life.half_dead_round == 0) life.half_dead_round = kRounds;
    life.min_led = kNodes;
    for (const auto& [id, count] : led) {
        (void)id;
        life.min_led = std::min(life.min_led, count);
        life.max_led = std::max(life.max_led, count);
    }
    if (led.size() < kNodes) life.min_led = 0;  // someone never led
    return life;
}

}  // namespace

int main(int argc, char** argv) {
    tibfit::exp::BenchIo io("bench_ext_energy", argc, argv);
    tibfit::util::Table t(
        "Extension: network lifetime vs CH rotation aggressiveness (64 nodes, 0.05 J)");
    t.header({"ch_fraction", "first death (round)", "half dead (round)",
              "leaderships min..max"});
    for (double f : {0.03, 0.08, 0.15, 0.30}) {
        const auto life = run(f, 20050628);
        t.row({tibfit::util::Table::num(f, 2), std::to_string(life.first_death_round),
               std::to_string(life.half_dead_round),
               std::to_string(life.min_led) + ".." + std::to_string(life.max_led)});
    }
    io.emit(t);
    // The artifact's metrics come from the shared default instrumented run.
    return io.finish();
}
