// Self-organizing network — the full Section-2 system model in one run.
//
// 64 identical sensors, no infrastructure: every round, LEACH (with the
// paper's trust-index admission gate) elects a handful of sensors to serve
// as cluster heads, the rest affiliate with the strongest advertisement,
// reports flow, TIBFIT adjudicates, trust deposits at the base station
// between rounds, and transmission costs drain batteries so leadership
// keeps rotating. A quarter of the sensors are compromised; watch the
// archive separate them and the election stop trusting them with
// leadership. The run is a location scenario with clustering = leach.
//
// Usage: ./self_organizing [rounds=12] [pct_faulty=0.25] [seed=9]
#include <cstdio>

#include "exp/location_experiment.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    // 8x8 lattice; a pct_faulty share of level-0 compromised nodes; one
    // event every 12 s over `rounds` rounds of 100 s.
    std::size_t rounds = 12;
    exp::Scenario s = exp::Scenario::location_defaults();
    s.seed = 9;
    s.faults.natural_error_rate = 0.01;
    s.location.n_nodes = 64;
    s.location.pct_faulty = 0.25;
    s.location.event_interval = 12.0;
    s.location.clustering = exp::Clustering::Leach;
    s.location.leach.ch_fraction = 0.08;
    exp::apply_knobs(argc, argv, {{"rounds", &rounds}, {"pct_faulty", &s}, {"seed", &s}});
    s.location.events = rounds * 100 / 12;
    exp::require_valid(argv[0], {&s, 1});  // the derived event count too
    // The world compromises the nearest whole number of nodes.
    const auto n_faulty = static_cast<std::size_t>(s.location.pct_faulty * 64.0 + 0.5);
    const exp::LocationResult r = exp::run_location_experiment(s);

    std::printf("Self-organizing run: %zu rounds, %zu events, %zu/64 sensors compromised\n\n",
                r.rounds.size(), r.events, n_faulty);
    std::printf("round  heads                          compromised heads\n");
    std::size_t compromised_leaderships = 0;
    for (std::size_t round = 0; round < r.rounds.size(); ++round) {
        const cluster::RoundRecord& rr = r.rounds[round];
        std::printf("%4zu   ", round);
        for (auto h : rr.heads) std::printf("%2u ", h);
        compromised_leaderships += rr.compromised_heads;
        std::printf("%*s%zu\n", static_cast<int>(31 - 3 * rr.heads.size()), "",
                    rr.compromised_heads);
    }

    std::printf("\nevents detected within r_error: %zu/%zu\n", r.detected, r.events);
    std::printf("archive mean TI: honest %.3f, compromised %.3f\n", r.mean_ti_correct,
                r.mean_ti_faulty);
    std::printf("compromised leaderships across all rounds: %zu\n", compromised_leaderships);
    std::printf("alive nodes at end: %zu/64\n", r.rounds.empty() ? 64 : r.rounds.back().alive);
    return r.detected * 2 >= r.events ? 0 : 1;
}
