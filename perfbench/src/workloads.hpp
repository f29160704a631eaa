// The three workloads. Each builds its inputs from args.seed, times
// whole rounds for args.seconds, checks every output against the
// benchmark's own recomputation (throwing CheckFailure on a mismatch) and
// fills the report: end-to-end metrics untraced, per-layer metrics traced.
// `start` is the process start, so setup_s counts everything before the
// timed phase.
#pragma once

#include "harness.hpp"

namespace perfbench {

Report run_cv_batch(const Args& args, Clock::time_point start);
Report run_porto_relational(const Args& args, Clock::time_point start);
Report run_service_mix(const Args& args, Clock::time_point start);

}  // namespace perfbench
