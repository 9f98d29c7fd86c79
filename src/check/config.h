// Correctness-tooling configuration (exp::Scenario `check` block).
//
//   off    — no checking (the default; artifacts byte-identical to a
//            build without tibfit_check).
//   shadow — a check::ShadowArbiter runs the paper-literal reference
//            stack in lockstep with every scored decision engine and
//            counts divergences; TIBFIT_CHECK invariants count + warn.
//            The run completes either way — CI gates on the counts.
//   assert — first divergence or invariant violation throws.
//
// See docs/CHECKING.md.
#pragma once

#include <span>
#include <string_view>
#include <utility>

namespace tibfit::check {

enum class Mode { Off, Shadow, Assert };

/// The modes' names, in enum order (scenario JSON and key=value).
inline constexpr std::pair<Mode, std::string_view> kModeNames[] = {
    {Mode::Off, "off"}, {Mode::Shadow, "shadow"}, {Mode::Assert, "assert"}};
inline auto names(Mode) { return std::span(kModeNames); }

inline const char* mode_name(Mode m) { return kModeNames[static_cast<int>(m)].second.data(); }

/// The scenario-level settings block (serialized as {"check": {...}}).
struct Settings {
    Mode mode = Mode::Off;
};

}  // namespace tibfit::check
