// Per-layer probes: public functions of each module, timed from outside at
// the workload's own shapes, each against a ceiling measured on this host.
#pragma once

#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace lcbench {

// `rank_seconds_per_step` (step_s_p50 x ranks) is the base of the nn.*_share
// metrics. Runs single-threaded from the caller, with the pool otherwise
// idle.
std::vector<Metric> run_probes(const Workload& w, double rank_seconds_per_step);

}  // namespace lcbench
