#pragma once

#include "workload.hpp"

namespace ageo::perfbench {

/// Run workload `w` once untraced and once serially from one thread,
/// timing every call into a layer's public entry points, and record every
/// per-layer metric. Throws CheckFailed when the traced run's regions or
/// verdicts differ from the untraced run's.
void run_traced(const Workload& w, std::uint64_t seed, Result& out);

}  // namespace ageo::perfbench
