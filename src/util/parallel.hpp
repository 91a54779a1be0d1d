// What is left of the intra-solve work pool: every solve now runs on its
// caller's thread, so no helper thread exists and utilization is 0.  This
// header stays only because the benchmark program still reads
// `utilization()`; it goes with that program's next revision.
#pragma once

namespace qbp::par {

/// Busy helpers / spawned helpers; always 0, because there are none.
[[nodiscard]] inline double utilization() { return 0.0; }

}  // namespace qbp::par
