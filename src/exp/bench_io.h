// Shared bench entry/exit plumbing. Every bench routes its tables through
// a BenchIo so that, besides the usual stdout rendering (pretty or --csv),
// the run can export a machine-readable artifact:
//
//   bench_fig2 --json out.json
//
// writes a schema-versioned JSON document with the emitted tables, the
// echoed parameters, build metadata, and the full metrics registry of one
// representative instrumented run (the bench supplies it via finish()).
//
// A bench states its workload as a base Scenario and passes it through
// scenario(), which applies the user's `key=value` knobs to it; every
// later write BenchIo makes to a Scenario refuses a field the user set.
//
// The paper's evaluation figures are grids: a compromised fraction per
// row, one protocol configuration (a Series) per curve. faulty_table()
// and decay_table() build, validate, run and emit such a grid in one
// call; finish(base, tokens) names the representative run the same way
// (all three in bench_grid.cc).
#pragma once

#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.h"
#include "util/table.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::exp {

/// One curve of a figure: its column header and the `key=value` tokens
/// (exp::apply_override) that turn the bench's base scenario into it.
struct Series {
    std::string name;
    std::vector<std::string> tokens;
};

class BenchIo {
  public:
    /// Parses `--json <path>` / `--json=<path>` and `--jobs N` /
    /// `--jobs=N` out of argv (the latter sets the process-wide
    /// par::set_jobs; it is excluded from the artifact's argv echo because
    /// outputs are thread-count-invariant; an N par::parse_jobs() rejects
    /// exits 2) and echoes any key=value tokens into the artifact's
    /// params, as typed.
    BenchIo(std::string name, int argc, char** argv);

    /// `base` with every user `key=value` applied in argv order through
    /// exp::apply_override, except `runs` and the keys declared with
    /// option(). A token it rejects exits 2 as `<bench>: '<token>': <why>`.
    /// Remembers the field each token set: a later set(), series token,
    /// faulty_table() row or finish() token that writes one of them exits
    /// 2 naming both. A bench with two workloads calls it once for each;
    /// every knob then applies to both.
    Scenario scenario(Scenario base);

    /// Applies one of the bench's own `key=value` tokens to `s`, as a
    /// series token is: exits 2 when apply_override() rejects it or when
    /// the user set the same field through scenario().
    void set(Scenario& s, std::string_view token) const;

    /// The replication count for this bench's sweeps: the `runs=<n>`
    /// command-line override when given (echoed into the artifact like any
    /// parameter), else `dflt` — the bench's paper-faithful default. A
    /// value that is not a positive integer exits 2.
    std::size_t trial_runs(std::size_t dflt) const;

    /// exp::require_valid() under this bench's name: exits 2 with the
    /// validate() messages of the first invalid scenario. Benches pass
    /// every scenario a knob reaches before running any of them.
    void require_valid(std::span<const Scenario> scenarios) const {
        exp::require_valid(name_, scenarios);
    }

    /// One-line bench description printed at the top of --help.
    void describe(std::string text) { description_ = std::move(text); }

    /// Declares a `key=value` option and returns its effective value: the
    /// command-line override when given, else `dflt`. Declaring registers
    /// the key for --help and the unrecognised-parameter warning only —
    /// defaults are never echoed, so the artifact's parameter echo keeps
    /// carrying exactly what the user typed plus what the bench sets with
    /// param() (artifact shape is part of the determinism-CI diff). Values
    /// parse by obs::fields::parse_text's rules; a malformed one exits 2.
    long option(const std::string& key, long dflt, const std::string& help);
    long option(const std::string& key, int dflt, const std::string& help) {
        return option(key, static_cast<long>(dflt), help);
    }
    double option(const std::string& key, double dflt, const std::string& help);
    bool option(const std::string& key, bool dflt, const std::string& help);
    std::string option(const std::string& key, std::string dflt, const std::string& help);
    std::string option(const std::string& key, const char* dflt, const std::string& help) {
        return option(key, std::string(dflt), help);
    }

    /// True when --help / -h was passed. BenchIo serves it itself at the
    /// first scenario(), trial_runs() or emit() call (print_help(), plus
    /// the base's settable keys after scenario(), then exit 0), so a bench
    /// declares its options before those. Only a bench that does timed
    /// work before any of them asks here.
    bool help_requested() const { return help_; }

    /// Uniform usage text: description, the declared key=value options,
    /// then the standard flags every bench shares (--csv, --json, --jobs,
    /// --timing, runs=N, --help).
    void print_help(std::ostream& out) const;
    void print_help() const;

    /// Prints `t` to stdout (CSV with --csv, pretty otherwise) and keeps a
    /// copy for the artifact.
    void emit(const util::Table& t);

    /// Emits a figure's %-faulty table. Its cells are row-major: for each
    /// fraction in `rows`, each series (`base` with its tokens applied)
    /// with its kind's pct_faulty set to that fraction. All cells pass
    /// require_valid(), then run as one mean_accuracies() list of `runs`
    /// trials each. The table is `title`, headed `row_header` then the
    /// series names, with one row of 100 x fraction and the series'
    /// accuracies per fraction, 3 digits.
    void faulty_table(const std::string& title, const Scenario& base,
                      const std::vector<double>& rows, const std::vector<Series>& series,
                      std::size_t runs, const std::string& row_header = "% faulty");

    /// Emits a decay run's per-epoch table (Figures 8-9): one cell per
    /// series over `base`, validated, then run as one
    /// mean_epoch_accuracies() list. Each row is an epoch: the event count
    /// at its end, its scheduled % faulty, then each series' accuracy.
    void decay_table(const std::string& title, const Scenario& base,
                     const std::vector<Series>& series, std::size_t runs);

    /// True when the run should produce a JSON artifact.
    bool json_requested() const { return !json_path_.empty(); }

    /// Stamps wall time (steady clock, since process start) and peak RSS
    /// into the artifact's optional `timing` block. Off by default because
    /// timing differs run to run and the determinism CI byte-compares
    /// artifacts across --jobs values; the user can opt in with --timing,
    /// and perf benches (bench_hotpath) opt in unconditionally because
    /// their numbers are timings already.
    void enable_timing() { timing_ = true; }

    /// Echoes `value` into the artifact's params under `key` (replacing
    /// what the user typed), rendered by `ostream <<` with bools as
    /// true|false. Benches echo the knobs of their representative run.
    template <class T>
    BenchIo& param(const std::string& key, const T& value) {
        std::ostringstream os;
        os << std::boolalpha << value;
        params_[key] = os.str();
        return *this;
    }

    /// Call as the last statement of main: `return io.finish(...)`. With
    /// --json, runs `instrument` — which should execute ONE representative
    /// experiment with the passed Recorder attached — and writes the
    /// artifact; without a callback, a small default binary run supplies
    /// the metrics. Returns the process exit code.
    int finish(const std::function<void(obs::Recorder&)>& instrument = {});
    /// Same, with the representative experiment given as `base` plus
    /// `tokens` (applied by set(), and each echoed into the artifact's
    /// params as typed): it runs (binary or location by kind) with the
    /// Recorder attached.
    int finish(Scenario base, std::initializer_list<std::string_view> tokens = {});

  private:
    struct DeclaredOption {
        std::string key;
        std::string dflt;  ///< rendered default, for --help only
        std::string help;
    };

    /// A field a user token set through scenario().
    struct UserField {
        std::string_view path;  ///< apply_override()'s static path
        std::string token;      ///< as typed
    };

    void declare(const std::string& key, std::string dflt, const std::string& help);
    bool declared(std::string_view key) const;
    void warn_undeclared() const;
    /// With --help: prints the usage (and `base`'s settable keys, when
    /// given) and exits 0.
    void serve_help(const Scenario* base) const;
    /// Applies `token` to `s`; exits 2 naming it when apply_override()
    /// rejects it. Returns the path it set.
    std::string_view apply(Scenario& s, std::string_view token) const;
    /// Exits 2 when a user token set the field at `path`: `<bench>:
    /// '<user token>' conflicts with <what>`.
    void refuse_clash(std::string_view path, const std::string& what) const;
    /// The user's value for `key` parsed as T, else `dflt`; exits 2 when
    /// the value does not parse.
    template <class T>
    T read(const std::string& key, T dflt, const char* expects) const;

    std::string name_;
    std::string description_;
    std::vector<std::string> argv_;
    bool csv_ = false;
    bool timing_ = false;
    bool help_ = false;
    std::string json_path_;
    std::map<std::string, std::string> params_;  ///< key-sorted artifact echo
    std::vector<std::string> cli_tokens_;  ///< the user's key=value tokens, in argv order
    std::vector<UserField> user_fields_;
    bool knobs_applied_ = false;  ///< scenario() ran: no knob is left unread
    std::vector<DeclaredOption> options_;
    std::vector<util::Table> tables_;
};

/// Fallback instrumented run (analysis-only benches with no simulation of
/// their own): a small binary experiment, so the artifact still carries a
/// live metrics registry.
void instrument_default_run(obs::Recorder& rec);

}  // namespace tibfit::exp
