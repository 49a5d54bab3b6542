#pragma once

#include "workload.hpp"

namespace ageo::perfbench {

/// Run workload `w` untraced for about `seconds` and record every
/// end-to-end metric. Throws CheckFailed on any output mismatch.
void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                    Result& out);

}  // namespace ageo::perfbench
