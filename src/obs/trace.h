// Structured decision tracing: typed, timestamped records of what the
// simulation did — what the generator injected, what the channel dropped,
// what each cluster head saw and decided, and how trust moved. Generalises
// the old two-block CSV trace (exp/trace.cc) into a schema-versioned JSONL
// stream any notebook can consume, with a reader for round-trip tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace tibfit::obs {

/// Bumped whenever a record gains/loses/renames a field. Readers reject
/// streams with a different major schema.
inline constexpr int kTraceSchemaVersion = 1;

/// Ground truth: the event generator injected an event.
struct EventInjected {
    std::uint64_t event_id = 0;
    double x = 0.0;
    double y = 0.0;
    std::uint32_t n_neighbours = 0;  ///< event neighbours informed
};

/// A cluster head accepted a report from a cluster member.
struct ReportReceived {
    std::uint32_t reporter = 0;
    std::uint32_t ch = 0;
    bool positive = false;      ///< binary-model claim
    bool has_location = false;  ///< location-model report
};

/// Why the channel killed a packet. `Injected` marks losses manufactured
/// by a fault-injection campaign window (inject::CampaignSpec), so post-run
/// analysis can split natural from injected loss.
enum class DropReason { Natural, OutOfRange, Collision, Injected };

/// The channel dropped a report-carrying packet (natural loss, out of
/// radio range, or MAC collision).
struct ReportDropped {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;  ///< receiver, or the broadcast id
    DropReason reason = DropReason::Natural;
};

/// A cluster head opened a report-collection window.
struct WindowOpened {
    std::uint32_t ch = 0;
    std::uint32_t first_reporter = 0;
};

/// A cluster head adjudicated a window. `latency` is time minus the
/// window-open instant; weights are the CTI of reporters vs. silent
/// neighbours (the paper's vote).
struct DecisionMade {
    std::uint32_t ch = 0;
    std::uint64_t decision_seq = 0;
    bool event_declared = false;
    bool has_location = false;
    double x = 0.0;
    double y = 0.0;
    double weight_reporters = 0.0;
    double weight_silent = 0.0;
    std::uint32_t n_reporters = 0;
    double latency = 0.0;
};

/// A trust table applied one judgement. `v` and `ti` are the node's state
/// after the update.
struct TrustUpdated {
    std::uint32_t node = 0;
    bool penalty = false;  ///< true = judged faulty, false = judged correct
    double v = 0.0;
    double ti = 0.0;
};

/// A fault-injection campaign killed a cluster head and handed its role to
/// a successor. `warm` records whether the successor restored the trust
/// checkpoint (true) or started cold with a fresh table (false);
/// `checkpointed_nodes` is the number of v accumulators that survived.
struct ChFailed {
    std::uint32_t old_ch = 0;
    std::uint32_t new_ch = 0;
    bool warm = false;
    std::uint32_t checkpointed_nodes = 0;
};

using TracePayload = std::variant<EventInjected, ReportReceived, ReportDropped, WindowOpened,
                                  DecisionMade, TrustUpdated, ChFailed>;

/// One trace entry: payload + simulation timestamp + append order.
struct TraceRecord {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< total order of appends (ties on `time`)
    TracePayload data;
};

/// Stable wire name of a payload kind ("decision_made", ...).
const char* trace_type_name(const TracePayload& payload);

/// Append-only trace collector. Disabled by default: a Recorder can carry
/// metrics-only instrumentation without accumulating records; append() on
/// a disabled log is a no-op.
class TraceLog {
  public:
    void set_enabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    void append(double time, TracePayload data) {
        if (!enabled_) return;
        records_.push_back(TraceRecord{time, next_seq_++, std::move(data)});
    }

    /// Re-appends every record of `other` (in its order) as fresh records
    /// of this log — sequence numbers are re-stamped so a log assembled
    /// from per-trial logs in trial order is indistinguishable from one
    /// log that watched the trials run serially. No-op while disabled.
    void append_all(const TraceLog& other) {
        for (const auto& r : other.records_) append(r.time, r.data);
    }

    const std::vector<TraceRecord>& records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    void clear() { records_.clear(); }

    /// Number of records of one payload kind.
    template <typename T>
    std::size_t count() const {
        std::size_t n = 0;
        for (const auto& r : records_) n += std::holds_alternative<T>(r.data) ? 1 : 0;
        return n;
    }

    /// Writes the stream: one header line carrying the schema version,
    /// then one compact JSON object per record, ordered by (time, seq).
    void write_jsonl(std::ostream& os) const;

  private:
    bool enabled_ = false;
    std::vector<TraceRecord> records_;
    std::uint64_t next_seq_ = 0;
};

/// Reads a JSONL trace stream back into records by obs/fields.h's reading
/// rules. Throws std::runtime_error naming the line on malformed lines,
/// unknown record types, a field value its type does not hold, or a
/// schema-version mismatch.
std::vector<TraceRecord> read_trace_jsonl(std::istream& is);

}  // namespace tibfit::obs
