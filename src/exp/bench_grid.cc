// The grid half of BenchIo: the figure tables and the representative run
// given as tokens. Kept apart from bench_io.cc so that a bench that calls
// none of these (the closed-form and parameter-table benches) links no
// sweep or location runner.
#include <string>
#include <string_view>
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/recorder.h"

namespace tibfit::exp {

namespace {

/// One scenario per series: `base` with that series' tokens applied.
std::vector<Scenario> apply_series(const BenchIo& io, const Scenario& base,
                                   const std::vector<Series>& series) {
    std::vector<Scenario> out(series.size(), base);
    for (std::size_t k = 0; k < series.size(); ++k) {
        for (const std::string& token : series[k].tokens) io.set(out[k], token);
    }
    return out;
}

}  // namespace

void BenchIo::faulty_table(const std::string& title, const Scenario& base,
                           const std::vector<double>& rows, const std::vector<Series>& series,
                           std::size_t runs, const std::string& row_header) {
    const bool binary = base.kind == Scenario::Kind::Binary;
    refuse_clash(binary ? "binary.pct_faulty" : "location.pct_faulty", "the rows of this table");
    const std::vector<Scenario> columns = apply_series(*this, base, series);
    std::vector<Scenario> cells;
    cells.reserve(rows.size() * columns.size());
    for (const double p : rows) {
        for (const Scenario& column : columns) {
            Scenario& cell = cells.emplace_back(column);
            (binary ? cell.binary.pct_faulty : cell.location.pct_faulty) = p;
        }
    }
    require_valid(cells);
    const std::vector<double> acc = mean_accuracies(cells, runs);

    std::vector<std::string> header{row_header};
    for (const Series& s : series) header.push_back(s.name);
    util::Table t(title);
    t.header(std::move(header));
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<double> row{100.0 * rows[r]};
        for (std::size_t c = 0; c < series.size(); ++c) row.push_back(acc[r * series.size() + c]);
        t.row_values(row, 3);
    }
    emit(t);
}

void BenchIo::decay_table(const std::string& title, const Scenario& base,
                          const std::vector<Series>& series, std::size_t runs) {
    const std::vector<Scenario> cells = apply_series(*this, base, series);
    require_valid(cells);
    const std::vector<std::vector<double>> acc = mean_epoch_accuracies(cells, runs);

    std::vector<std::string> header{"events", "% faulty"};
    for (const Series& s : series) header.push_back(s.name);
    util::Table t(title);
    t.header(std::move(header));
    const LocationWorkload& wl = base.location;
    const std::size_t epochs = acc.empty() ? 0 : acc.front().size();
    for (std::size_t e = 0; e < epochs; ++e) {
        const double pct = wl.decay_initial + wl.decay_step * static_cast<double>(e);
        std::vector<double> row{static_cast<double>((e + 1) * wl.decay_epoch_events), 100.0 * pct};
        for (const auto& c : acc) row.push_back(e < c.size() ? c[e] : 0.0);
        t.row_values(row, 3);
    }
    emit(t);
}

int BenchIo::finish(Scenario base, std::initializer_list<std::string_view> tokens) {
    for (const std::string_view token : tokens) {
        set(base, token);
        const auto eq = token.find('=');  // set() accepted it: no field takes ""
        params_[std::string(token.substr(0, eq))] = token.substr(eq + 1);
    }
    return finish([&](obs::Recorder& rec) {
        base.recorder = &rec;
        if (base.kind == Scenario::Kind::Binary) {
            run_binary_experiment(base);
        } else {
            run_location_experiment(base);
        }
    });
}

}  // namespace tibfit::exp
