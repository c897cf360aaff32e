// Environment/UniverseConfig resolution for table-driven tuning: is it
// on, and which dispatch table supplies the knobs. Kept apart from
// DispatchTable so the table stays pure and unit-testable (no getenv in
// it).
#pragma once

#include <memory>

#include "tune/dispatch_table.hpp"
#include "tune/options.hpp"

namespace cmpi::tune {

/// kAuto follows CMPI_TUNE (unset/"0" = off); kEnabled/kDisabled win
/// outright.
[[nodiscard]] bool tuning_enabled(const TuneOptions& options);

/// The dispatch table for these options: options.table_path, else
/// CMPI_TUNE_TABLE, else none (nullptr). Tables are loaded once per path
/// and shared process-wide (every rank endpoint asks). A missing or
/// malformed file logs a warning once and returns nullptr — the endpoint
/// keeps the UniverseConfig knobs, it never fails the run.
[[nodiscard]] std::shared_ptr<const DispatchTable> shared_table(
    const TuneOptions& options);

}  // namespace cmpi::tune
