// Load generator and harness: forks the system under test, sets it up
// `plan.setup_reps` times (half before and half after the measured window),
// drives the measured open-loop window, checks the outputs, and prints one
// JSON object with every metric on stdout.
#pragma once

#include <string>

#include "plan.h"

namespace portalbench {

/// Runs one benchmark pass.  Artefacts (SUT spans, Chrome trace, ledger)
/// go under `out_dir`.  Returns 0 when every output check passed.
int run_benchmark(const Plan& plan, const std::string& out_dir);

}  // namespace portalbench
