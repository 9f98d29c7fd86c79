#include "exp/bench_io.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/artifact.h"
#include "obs/fields.h"
#include "obs/recorder.h"
#include "par/jobs.h"

namespace tibfit::exp {

namespace {

/// A knob, flag or token the bench cannot use: `<bench>: <why>`, exit 2.
[[noreturn]] void reject(const std::string& bench, const std::string& why) {
    std::cerr << bench << ": " << why << '\n';
    std::exit(2);
}

/// A `key=value` knob whose value does not parse as `expects`, exit 2.
[[noreturn]] void reject_value(const std::string& bench, std::string_view key,
                               std::string_view value, const char* expects) {
    std::cerr << bench << ": invalid value '" << value << "' for " << key << "= (expects "
              << expects << ")\n";
    std::exit(2);
}

/// `key=value` split at the first '='; the value is empty without one.
std::pair<std::string_view, std::string_view> split_token(std::string_view token) {
    const auto eq = token.find('=');
    if (eq == token.npos) return {token, {}};
    return {token.substr(0, eq), token.substr(eq + 1)};
}

void apply_jobs(std::string_view value, const std::string& bench) {
    if (const auto n = par::parse_jobs(value)) {
        par::set_jobs(*n);
        return;
    }
    std::cerr << bench << ": ignoring invalid --jobs value '" << value << "'\n";
}

}  // namespace

template <class T>
T BenchIo::read(const std::string& key, T dflt, const char* expects) const {
    const auto it = params_.find(key);
    if (it != params_.end() && !obs::fields::parse_text(it->second, dflt)) {
        reject_value(name_, key, it->second, expects);
    }
    return dflt;
}

BenchIo::BenchIo(std::string name, int argc, char** argv) : name_(std::move(name)) {
    argv_.reserve(static_cast<std::size_t>(argc));
    if (argc > 0) argv_.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        // --jobs only picks the thread count; results are bit-identical at
        // any value, so it is deliberately NOT echoed into argv_ (and thus
        // the artifact) — `--jobs 1` and `--jobs 8` runs must diff clean.
        if ((arg == "--jobs" || arg == "--json") && i + 1 == argc) {
            reject(name_, std::string(arg) + " requires an argument");
        }
        if (arg == "--jobs") {
            apply_jobs(argv[++i], name_);
            continue;
        }
        if (arg.rfind("--jobs=", 0) == 0) {
            apply_jobs(arg.substr(std::strlen("--jobs=")), name_);
            continue;
        }
        // --help short-circuits the run before finish(), so it never
        // belongs in the artifact's argv echo either.
        if (arg == "--help" || arg == "-h") {
            help_ = true;
            continue;
        }
        argv_.emplace_back(argv[i]);
        if (arg == "--csv") {
            csv_ = true;
        } else if (arg == "--timing") {
            timing_ = true;
        } else if (arg == "--json") {
            json_path_ = argv[++i];
            argv_.emplace_back(json_path_);
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path_ = arg.substr(std::strlen("--json="));
            if (json_path_.empty()) reject(name_, "--json requires an argument");
        } else if (const auto eq = arg.find('='); eq != arg.npos && eq != 0) {
            params_[std::string(arg.substr(0, eq))] = arg.substr(eq + 1);
            cli_keys_.emplace_back(arg.substr(0, eq));
        }
    }
}

std::size_t BenchIo::trial_runs(std::size_t dflt) const {
    const auto it = params_.find("runs");
    if (it != params_.end() && (!obs::fields::parse_text(it->second, dflt) || dflt == 0)) {
        reject_value(name_, "runs", it->second, "a positive integer");
    }
    return dflt;
}

void BenchIo::declare(const std::string& key, std::string dflt, const std::string& help) {
    for (const auto& o : options_) {
        if (o.key == key) return;  // first declaration wins
    }
    options_.push_back({key, std::move(dflt), help});
}

bool BenchIo::declared(const std::string& key) const {
    return std::any_of(options_.begin(), options_.end(),
                       [&](const DeclaredOption& o) { return o.key == key; });
}

long BenchIo::option(const std::string& key, long dflt, const std::string& help) {
    declare(key, std::to_string(dflt), help);
    return read(key, dflt, "an integer");
}

double BenchIo::option(const std::string& key, double dflt, const std::string& help) {
    std::ostringstream rendered;
    rendered << dflt;
    declare(key, rendered.str(), help);
    return read(key, dflt, "a number");
}

bool BenchIo::option(const std::string& key, bool dflt, const std::string& help) {
    declare(key, dflt ? "true" : "false", help);
    return read(key, dflt, "true or false");
}

std::string BenchIo::option(const std::string& key, std::string dflt, const std::string& help) {
    declare(key, dflt, help);
    const auto it = params_.find(key);
    return it == params_.end() ? dflt : it->second;
}

void BenchIo::print_help(std::ostream& out) const {
    out << "usage: " << name_ << " [key=value ...] [flags]\n";
    if (!description_.empty()) out << "\n  " << description_ << "\n";
    std::size_t width = std::strlen("--json PATH");
    for (const auto& o : options_) width = std::max(width, o.key.size() + 1 + o.dflt.size());
    const auto row = [&](const std::string& lhs, const std::string& help) {
        out << "  " << std::left << std::setw(static_cast<int>(width) + 2) << lhs << help
            << '\n';
    };
    if (!options_.empty()) {
        out << "\noptions:\n";
        for (const auto& o : options_) row(o.key + '=' + o.dflt, o.help);
    }
    out << "\nstandard:\n";
    row("runs=N", "replications per data point (default is per bench)");
    row("--csv", "machine-readable tables on stdout");
    row("--json PATH", "write the schema-versioned run artifact");
    row("--jobs N", "worker threads for trial fan-out (outputs identical at any N)");
    row("--timing", "include wall time and peak RSS in the artifact");
    row("--help", "this message");
}

void BenchIo::print_help() const { print_help(std::cout); }

void BenchIo::warn_undeclared() const {
    for (const auto& key : cli_keys_) {
        if (key == "runs" || declared(key)) continue;
        std::cerr << name_ << ": warning: unrecognised parameter '" << key
                  << "=' (see --help)\n";
    }
}

void BenchIo::apply_token(Scenario& s, std::string_view token) const {
    const auto [key, value] = split_token(token);
    try {
        apply_override(s, key, value);
    } catch (const std::invalid_argument& e) {
        reject(name_, "'" + std::string(token) + "': " + e.what());
    }
}

std::vector<Scenario> BenchIo::apply_series(const Scenario& base,
                                            const std::vector<Series>& series) const {
    std::vector<Scenario> out(series.size(), base);
    for (std::size_t k = 0; k < series.size(); ++k) {
        for (const std::string& token : series[k].tokens) apply_token(out[k], token);
    }
    return out;
}

void BenchIo::faulty_table(const std::string& title, const Scenario& base,
                           const std::vector<double>& rows, const std::vector<Series>& series,
                           std::size_t runs, const std::string& row_header) {
    const std::vector<Scenario> columns = apply_series(base, series);
    std::vector<Scenario> cells;
    cells.reserve(rows.size() * columns.size());
    for (const double p : rows) {
        for (const Scenario& column : columns) {
            Scenario& cell = cells.emplace_back(column);
            (cell.kind == Scenario::Kind::Binary ? cell.binary.pct_faulty
                                                 : cell.location.pct_faulty) = p;
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
    const std::vector<Scenario> cells = apply_series(base, series);
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

void BenchIo::emit(const util::Table& t) {
    if (csv_) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }
    tables_.push_back(t);
}

int BenchIo::finish(const std::function<void(obs::Recorder&)>& instrument) {
    warn_undeclared();
    if (json_path_.empty()) return 0;
    obs::Recorder rec;
    if (instrument) {
        instrument(rec);
    } else {
        instrument_default_run(rec);
    }
    std::ofstream out(json_path_);
    if (!out) {
        std::cerr << name_ << ": cannot open " << json_path_ << " for writing\n";
        return 1;
    }
    obs::ArtifactMeta meta;
    meta.name = name_;
    meta.argv = argv_;
    if (timing_) {
        meta.has_timing = true;
        meta.timing.wall_seconds = obs::process_wall_seconds();
        meta.timing.peak_rss_bytes = obs::process_peak_rss_bytes();
    }
    std::vector<const util::Table*> tables;
    tables.reserve(tables_.size());
    for (const auto& t : tables_) tables.push_back(&t);
    obs::write_run_artifact(out, meta, rec.metrics(), params_, tables);
    out.flush();
    if (!out) {
        std::cerr << name_ << ": failed writing " << json_path_ << '\n';
        return 1;
    }
    return 0;
}

int BenchIo::finish(Scenario base, std::initializer_list<std::string_view> tokens) {
    for (const std::string_view token : tokens) {
        apply_token(base, token);
        const auto [key, value] = split_token(token);
        params_[std::string(key)] = value;
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

void instrument_default_run(obs::Recorder& rec) {
    Scenario s = Scenario::binary_defaults();
    s.binary.n_nodes = 10;
    s.binary.pct_faulty = 0.4;
    s.binary.events = 50;
    s.seed = 1;
    s.recorder = &rec;
    run_binary_experiment(s);
}

}  // namespace tibfit::exp
