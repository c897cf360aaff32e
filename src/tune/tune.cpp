#include "tune/tune.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>

#include "common/log.hpp"

namespace cmpi::tune {

bool tuning_enabled(const TuneOptions& options) {
  switch (options.mode) {
    case Tuning::kEnabled:
      return true;
    case Tuning::kDisabled:
      return false;
    case Tuning::kAuto:
      break;
  }
  const char* env = std::getenv("CMPI_TUNE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::shared_ptr<const DispatchTable> shared_table(
    const TuneOptions& options) {
  std::string path = options.table_path;
  if (path.empty()) {
    if (const char* env = std::getenv("CMPI_TUNE_TABLE")) {
      path = env;
    }
  }
  if (path.empty()) {
    return nullptr;
  }
  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const DispatchTable>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(path);
  if (it != cache.end()) {
    return it->second;
  }
  Result<DispatchTable> loaded = DispatchTable::load(path);
  std::shared_ptr<const DispatchTable> table;
  if (loaded.is_ok()) {
    table = std::make_shared<const DispatchTable>(std::move(loaded).value());
  } else {
    log_warn("tune: dispatch table unusable, keeping the config knobs: %s",
             loaded.status().message().c_str());
  }
  cache.emplace(path, table);  // negative results cached too: warn once
  return table;
}

}  // namespace cmpi::tune
