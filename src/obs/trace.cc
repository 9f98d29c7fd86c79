#include "obs/trace.h"

#include <algorithm>
#include <iterator>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/fields.h"

namespace tibfit::obs {

// ---- The field lists (obs/fields.h derives the codec) ----

template <fields::Is<EventInjected> S, class F>
void for_each_field(S& r, F&& f) {
    f("event_id", r.event_id);
    f("x", r.x);
    f("y", r.y);
    f("n_neighbours", r.n_neighbours);
}
template <fields::Is<ReportReceived> S, class F>
void for_each_field(S& r, F&& f) {
    f("reporter", r.reporter);
    f("ch", r.ch);
    f("positive", r.positive);
    f("has_location", r.has_location);
}
template <fields::Is<ReportDropped> S, class F>
void for_each_field(S& r, F&& f) {
    f("src", r.src);
    f("dst", r.dst);
    f("reason", r.reason);
}
template <fields::Is<WindowOpened> S, class F>
void for_each_field(S& r, F&& f) {
    f("ch", r.ch);
    f("first_reporter", r.first_reporter);
}
template <fields::Is<DecisionMade> S, class F>
void for_each_field(S& r, F&& f) {
    f("ch", r.ch);
    f("decision_seq", r.decision_seq);
    f("event_declared", r.event_declared);
    f("has_location", r.has_location);
    f("x", r.x);
    f("y", r.y);
    f("weight_reporters", r.weight_reporters);
    f("weight_silent", r.weight_silent);
    f("n_reporters", r.n_reporters);
    f("latency", r.latency);
}
template <fields::Is<TrustUpdated> S, class F>
void for_each_field(S& r, F&& f) {
    f("node", r.node);
    f("penalty", r.penalty);
    f("v", r.v);
    f("ti", r.ti);
}
template <fields::Is<ChFailed> S, class F>
void for_each_field(S& r, F&& f) {
    f("old_ch", r.old_ch);
    f("new_ch", r.new_ch);
    f("warm", r.warm);
    f("checkpointed_nodes", r.checkpointed_nodes);
}
/// The members every record line carries besides `type` and the payload.
template <fields::Is<TraceRecord> S, class F>
void for_each_field(S& r, F&& f) {
    f("t", r.time);
    f("seq", r.seq);
}

constexpr std::pair<DropReason, std::string_view> kDropReasons[] = {
    {DropReason::Natural, "natural"},
    {DropReason::OutOfRange, "out_of_range"},
    {DropReason::Collision, "collision"},
    {DropReason::Injected, "injected"}};
auto names(DropReason) { return std::span(kDropReasons); }

namespace {

constexpr const char* kHeaderType = "trace_header";

/// The wire name of each TracePayload alternative, in variant order.
constexpr std::string_view kTypeNames[] = {"event_injected", "report_received", "report_dropped",
                                           "window_opened",  "decision_made",   "trust_updated",
                                           "ch_failed"};
static_assert(std::size(kTypeNames) == std::variant_size_v<TracePayload>);

/// A default payload of the alternative at `index`.
TracePayload empty_payload(std::size_t index) {
    TracePayload out;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((I == index && (out.emplace<I>(), true)) || ...);
    }(std::make_index_sequence<std::variant_size_v<TracePayload>>{});
    return out;
}

}  // namespace

const char* trace_type_name(const TracePayload& payload) {
    return kTypeNames[payload.index()].data();
}

void TraceLog::write_jsonl(std::ostream& os) const {
    {
        json::Writer w(os);
        w.begin_object();
        w.field("type", kHeaderType);
        w.field("schema", kTraceSchemaVersion);
        w.field("source", "tibfit::obs");
        w.end_object();
        os << '\n';
    }
    // Records are appended in simulation order already; the sort is a
    // guarantee, not usually work.
    std::vector<const TraceRecord*> ordered;
    ordered.reserve(records_.size());
    for (const auto& r : records_) ordered.push_back(&r);
    std::stable_sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
        if (a->time != b->time) return a->time < b->time;
        return a->seq < b->seq;
    });
    for (const TraceRecord* r : ordered) {
        json::Writer w(os);
        w.begin_object();
        w.field("type", trace_type_name(r->data));
        fields::write_members(w, *r);
        std::visit([&](const auto& payload) { fields::write_members(w, payload); }, r->data);
        w.end_object();
        os << '\n';
    }
}

std::vector<TraceRecord> read_trace_jsonl(std::istream& is) {
    std::vector<TraceRecord> out;
    std::string line;
    bool saw_header = false;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty()) continue;
        const std::string where = "trace line " + std::to_string(lineno) + ": ";
        json::Value v;
        try {
            v = json::parse(line);
        } catch (const std::exception& e) {
            throw std::runtime_error(where + e.what());
        }
        const json::Value* type = v.find("type");
        if (!type || !type->is_string()) throw std::runtime_error(where + "type expects a string");
        if (type->as_string() == kHeaderType) {
            int schema = -1;
            fields::read_at(v, "schema", schema, where);
            if (schema != kTraceSchemaVersion) {
                throw std::runtime_error("trace: schema version " + std::to_string(schema) +
                                         " unsupported (expected " +
                                         std::to_string(kTraceSchemaVersion) + ")");
            }
            saw_header = true;
            continue;
        }
        if (!saw_header) throw std::runtime_error("trace: missing header line");
        const auto* name = std::find(std::begin(kTypeNames), std::end(kTypeNames), type->as_string());
        if (name == std::end(kTypeNames)) {
            throw std::runtime_error(where + "unknown record type '" + type->as_string() + "'");
        }
        TraceRecord r;
        fields::read_members(v, r, where);
        r.data = empty_payload(static_cast<std::size_t>(name - std::begin(kTypeNames)));
        std::visit([&](auto& payload) { fields::read_members(v, payload, where); }, r.data);
        out.push_back(std::move(r));
    }
    return out;
}

}  // namespace tibfit::obs
