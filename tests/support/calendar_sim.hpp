// The event-calendar reference for simmodel::simulate.
//
// calendar_simulate runs the same model on des::Simulator and one
// des::Facility per computer: an arrival event per job, whose completion
// event the facility schedules at service start, with the per-job
// statistics folded when that event fires. It uses simulate's RNG stream
// layout and draw order, so the two agree bit for bit except where two
// computers' departures are the same double (see des/server_bank.hpp).
// tests/simmodel/test_system_sim_differential.cpp checks that they do.
#pragma once

#include "core/types.hpp"
#include "simmodel/system_sim.hpp"

namespace nashlb::test_support {

[[nodiscard]] simmodel::SimRunResult calendar_simulate(
    const core::Instance& inst, const core::StrategyProfile& profile,
    const simmodel::SimConfig& config);

}  // namespace nashlb::test_support
