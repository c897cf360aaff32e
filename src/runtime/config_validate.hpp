// UniverseConfig knob validation (the fabric::validate pattern): a
// malformed knob comes back as kInvalidArgument naming the offending
// field — never a silent clamp, never a bare assert. Universe's
// constructor runs this and throws std::invalid_argument with the same
// message; callers who want the Status call validate() themselves first.
#pragma once

#include "common/status.hpp"

namespace cmpi::runtime {

struct UniverseConfig;

/// Bounds (also the documentation of what "in range" means):
///   * rendezvous_threshold: 0 (default), or >= 512 bytes (a smaller
///     switchover sends sub-cell messages through slab bookkeeping that
///     costs more than the copy it saves). SIZE_MAX = rendezvous off.
[[nodiscard]] Status validate(const UniverseConfig& config);

}  // namespace cmpi::runtime
