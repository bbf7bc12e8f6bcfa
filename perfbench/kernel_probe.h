// Kernel probe: selects the match kernel a workload's block geometry gets
// (cam::select_match_kernel) and times it directly, outside the simulator,
// from sweep through finished priority-encoded result: the fused
// sweep->encode entry when the kernel has one; otherwise the raw sweep plus
// the valid-AND and encode_match_lines scan the unfused block path adds.
#pragma once

#include <cstdint>
#include <string>

#include "src/cam/types.h"

namespace perfbench {

struct KernelProbe {
  std::string name;        ///< Selected kernel's registry name.
  bool fused = false;      ///< Has a fused sweep->encode entry (encode_fn).
  double ns_per_sweep = 0; ///< Median host ns for one block-depth sweep,
                           ///< encoding included.
};

/// `dont_care` is the per-entry TCAM don't-care mask of the probe's rows
/// (0 for a binary geometry).
KernelProbe probe_kernel(dspcam::cam::CamKind kind, unsigned data_width,
                         unsigned block_size, std::uint64_t dont_care,
                         std::uint64_t seed);

}  // namespace perfbench
