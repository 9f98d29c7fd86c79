// First-order radio energy model (Heinzelman et al., the LEACH papers the
// paper adopts for cluster formation): transmitting k bits over distance d
// costs E_elec*k + eps_amp*k*d^2, receiving costs E_elec*k. Energy drives
// CH rotation — nodes that have served recently or are depleted are less
// likely to be elected.
#pragma once

#include <cstddef>

namespace tibfit::cluster {

/// Radio energy coefficients (classic LEACH values, joules).
struct EnergyParams {
    double e_elec = 50e-9;      ///< electronics energy per bit
    double eps_amp = 100e-12;   ///< amplifier energy per bit per m^2
};

/// Cost of one transmission of `bits` over distance `d`.
double tx_cost(const EnergyParams& p, std::size_t bits, double d);

/// Cost of receiving `bits`.
double rx_cost(const EnergyParams& p, std::size_t bits);

/// A node's battery. Never goes below zero; a dead battery stays dead.
class Battery {
  public:
    explicit Battery(double initial_joules = 2.0) : initial_(initial_joules), level_(initial_joules) {}

    double initial() const { return initial_; }
    double level() const { return level_; }
    /// Remaining fraction in [0, 1].
    double fraction() const { return initial_ > 0.0 ? level_ / initial_ : 0.0; }
    bool depleted() const { return level_ <= 0.0; }

    /// Draws `joules`; clamps at zero. Returns false if already depleted.
    bool consume(double joules);

  private:
    double initial_;
    double level_;
};

}  // namespace tibfit::cluster
