// Tuning configuration carried by runtime::UniverseConfig, and the bounds
// every source of the p2p rendezvous knobs must meet.
//
// Deliberately dependency-free (std only): runtime/universe.hpp embeds a
// TuneOptions value, and the dispatch-table machinery must stay out of
// that include graph.
#pragma once

#include <cstddef>
#include <string>

namespace cmpi::tune {

/// Tri-state enable for table-driven knobs, mirroring
/// runtime::CoherenceChecking: tests force it on/off in code, everything
/// else follows the environment.
enum class Tuning {
  kAuto,      ///< follow the CMPI_TUNE environment variable (off unset)
  kEnabled,   ///< take the knobs from the dispatch table when one loads
  kDisabled,  ///< keep the UniverseConfig knobs, even if the environment
              ///< asks for the table
};

struct TuneOptions {
  Tuning mode = Tuning::kAuto;
  /// Dispatch table (bench/autotune output) the endpoint takes its knob
  /// rows from. Empty = follow CMPI_TUNE_TABLE; unset there too = no
  /// table, so the UniverseConfig knobs apply.
  std::string table_path;
};

/// Bounds on the three rendezvous knobs. runtime::validate applies them to
/// UniverseConfig's rendezvous_* fields and DispatchTable::load to every
/// table row, so a knob meets the same bounds whichever source sets it.
/// A threshold below the floor sends sub-cell messages through slab
/// bookkeeping that costs more than the copy it saves; SIZE_MAX
/// (rendezvous off) is always allowed.
inline constexpr std::size_t kRendezvousThresholdMin = 512;
inline constexpr std::size_t kRendezvousQuantumMin = std::size_t{4} << 10;
inline constexpr std::size_t kRendezvousQuantumMax = std::size_t{16} << 20;
inline constexpr std::size_t kRendezvousInflightMax = 64;

}  // namespace cmpi::tune
