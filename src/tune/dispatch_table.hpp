// Per-size-class dispatch table: the offline autotuner's product and the
// source of the p2p knobs when tuning is on.
//
// bench/autotune sweeps the Fig 9 axes (cell size x rendezvous threshold
// x procs, plus a pipeline-quantum mini-sweep) on the simulator and
// writes the winning knobs per message-size class to
// bench/baselines/dispatch_table.json, with provenance metadata (axes,
// resolution) so the artifact records how it was produced. A
// p2p::Endpoint with tuning on takes the rows for its own cell payload
// at construction and sends each message with the row covering its size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace cmpi::tune {

/// Winning knobs for messages of size <= max_bytes (classes are
/// half-open, sorted ascending; the last class catches everything). The
/// table holds one entry per (size class x cell payload): the winning
/// protocol flips with the cell size (small cells tax the eager path's
/// per-cell costs), so a single per-class row would mislead any universe
/// built with a different ring geometry than the probe's.
struct DispatchEntry {
  std::size_t max_bytes = 0;
  /// The cell payload this row was measured with. It is fixed when the
  /// Universe lays out its ring matrix, so an endpoint uses only the rows
  /// matching its own geometry.
  std::size_t cell_payload = 0;
  std::size_t rendezvous_threshold = 0;
  std::size_t pipeline_quantum = 0;
  std::size_t inflight_depth = 0;
  /// The winning measurement (MB/s at this class's probe size).
  double mbps = 0;

  friend bool operator==(const DispatchEntry&,
                         const DispatchEntry&) = default;
};

class DispatchTable {
 public:
  DispatchTable() = default;
  explicit DispatchTable(std::vector<DispatchEntry> entries);

  /// Parse a dispatch_table.json written by save(). Tolerates unknown
  /// keys; kInvalidArgument on anything structurally unusable, and on a
  /// row that lacks cell_payload or a knob field or whose knobs fall
  /// outside the bounds in tune/options.hpp (inflight depth 0 included),
  /// naming the row's class and cell.
  static Result<DispatchTable> load(const std::string& path);

  /// The row for exactly this (size class, cell payload); nullptr when
  /// the table has none.
  [[nodiscard]] const DispatchEntry* lookup(
      std::size_t max_bytes, std::size_t cell_payload) const noexcept;

  [[nodiscard]] const std::vector<DispatchEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Provenance key/value pairs (sweep axes, resolution, generator).
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  provenance() const noexcept {
    return provenance_;
  }
  void set_provenance(
      std::vector<std::pair<std::string, std::string>> provenance) {
    provenance_ = std::move(provenance);
  }

  /// Write the JSON document save()/load() round-trip.
  void save(std::ostream& os) const;

 private:
  std::vector<DispatchEntry> entries_;  // sorted by max_bytes
  std::vector<std::pair<std::string, std::string>> provenance_;
};

}  // namespace cmpi::tune
