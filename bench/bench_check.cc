// bench_check — the self-checking harness as a runnable gate.
//
// Runs the Figure-2 (binary) and Figure-4 (location) smoke workloads twice
// each: once with check=off and once with check=shadow, where every CH
// decision is re-derived by the paper-literal differential oracle
// (check::ShadowArbiter) and the TIBFIT_CHECK invariants are evaluated.
// Prints, per workload, the number of decisions cross-checked, the oracle
// divergence count, the invariant-violation count, and the wall-clock
// overhead of checking. Exits nonzero on any divergence or violation —
// CI's check-shadow job gates on this (see docs/CHECKING.md).
#include <chrono>
#include <cstdio>
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "util/invariant.h"
#include "util/table.h"

namespace {

using namespace tibfit;

struct CheckedRun {
    double off_ms = 0.0;
    double shadow_ms = 0.0;
    std::size_t checked = 0;
    std::size_t divergences = 0;
    std::uint64_t violations = 0;
};

double run_ms(const std::function<void()>& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

CheckedRun run_checked(const exp::BenchIo& io, exp::Scenario scenario) {
    CheckedRun out;
    io.set(scenario, "check.mode=off");
    std::size_t checked = 0, divergences = 0;
    const auto run = [&scenario, &checked, &divergences] {
        if (scenario.kind == exp::Scenario::Kind::Binary) {
            const auto r = exp::run_binary_experiment(scenario);
            checked = r.checked_decisions;
            divergences = r.oracle_divergences;
        } else {
            const auto r = exp::run_location_experiment(scenario);
            checked = r.checked_decisions;
            divergences = r.oracle_divergences;
        }
    };
    out.off_ms = run_ms(run);
    const std::uint64_t violations_before = util::invariant_violations();
    io.set(scenario, "check.mode=shadow");
    out.shadow_ms = run_ms(run);
    out.checked = checked;
    out.divergences = divergences;
    out.violations = util::invariant_violations() - violations_before;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    exp::BenchIo io("bench_check", argc, argv);
    io.describe("Self-check gate: differential oracle + invariants on fig2/fig4 smokes "
                "(a Scenario key=value sets both)");
    const long binary_events = io.option("binary_events", 200, "binary events per run");
    const long location_events = io.option("location_events", 100, "location events per run");

    exp::Scenario binary = exp::Scenario::binary_defaults();
    binary.binary.events = static_cast<std::size_t>(binary_events);
    binary.binary.pct_faulty = 0.5;
    binary.faults.natural_error_rate = 0.01;
    binary.faults.missed_alarm_rate = 0.5;
    binary.channel.drop_probability = 0.0;
    binary.seed = 20050628;
    binary = io.scenario(binary);

    exp::Scenario location = exp::Scenario::location_defaults();
    location.location.fault_level = sensor::NodeClass::Level0;
    location.location.events = static_cast<std::size_t>(location_events);
    location.location.pct_faulty = 0.5;
    location.seed = 20050628;
    location = io.scenario(location);

    for (const exp::Scenario* s : {&binary, &location}) io.require_valid({s, 1});

    struct Workload {
        const char* name;
        exp::Scenario scenario;
    };
    const std::vector<Workload> workloads = {{"fig2 binary", binary},
                                             {"fig4 location", location}};

    util::Table t("Self-check: oracle divergences and checking overhead");
    t.header({"workload", "checked", "divergences", "violations", "off ms", "shadow ms",
              "overhead x"});
    std::size_t total_divergences = 0;
    std::uint64_t total_violations = 0;
    std::size_t total_checked = 0;
    for (const auto& w : workloads) {
        const CheckedRun r = run_checked(io, w.scenario);
        total_checked += r.checked;
        total_divergences += r.divergences;
        total_violations += r.violations;
        t.row({w.name, std::to_string(r.checked), std::to_string(r.divergences),
               std::to_string(r.violations), std::to_string(r.off_ms),
               std::to_string(r.shadow_ms),
               std::to_string(r.off_ms > 0.0 ? r.shadow_ms / r.off_ms : 0.0)});
    }
    io.emit(t);

    io.param("pct_faulty", binary.binary.pct_faulty)
        .param("checked", static_cast<double>(total_checked))
        .param("divergences", static_cast<double>(total_divergences))
        .param("invariant_violations", static_cast<double>(total_violations));
    // The instrumented artifact run is a shadow run, so the
    // check.decisions_checked / check.divergences counters land in the JSON
    // for CI to gate on.
    exp::Scenario rep = binary;
    io.set(rep, "check.mode=shadow");
    const int rc = io.finish(rep);
    if (rc != 0) return rc;
    if (total_divergences > 0 || total_violations > 0) {
        std::fprintf(stderr, "bench_check: FAILED — %zu divergences, %llu violations\n",
                     total_divergences,
                     static_cast<unsigned long long>(total_violations));
        return 1;
    }
    std::printf("bench_check: OK — %zu decisions cross-checked, zero divergences\n",
                total_checked);
    return 0;
}
