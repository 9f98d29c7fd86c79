#include "exp/bench_io.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "obs/artifact.h"
#include "obs/fields.h"
#include "obs/recorder.h"
#include "par/jobs.h"

namespace tibfit::exp {

namespace {

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
        std::cerr << name_ << ": invalid value '" << it->second << "' for " << key
                  << "= (expects " << expects << ")\n";
        std::exit(2);
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
        if (arg == "--jobs" && i + 1 < argc) {
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
        } else if (arg == "--json" && i + 1 < argc) {
            json_path_ = argv[++i];
            argv_.emplace_back(json_path_);
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path_ = arg.substr(std::strlen("--json="));
        } else if (const auto eq = arg.find('='); eq != arg.npos && eq != 0) {
            params_[std::string(arg.substr(0, eq))] = arg.substr(eq + 1);
            cli_keys_.emplace_back(arg.substr(0, eq));
        }
    }
}

std::size_t BenchIo::trial_runs(std::size_t dflt) const {
    const std::size_t n = read("runs", dflt, "an integer");
    return n > 0 ? n : dflt;
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

int BenchIo::finish(Scenario representative) {
    return finish([&](obs::Recorder& rec) {
        representative.recorder = &rec;
        if (representative.kind == Scenario::Kind::Binary) {
            run_binary_experiment(representative);
        } else {
            run_location_experiment(representative);
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
