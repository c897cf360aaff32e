#include "runtime/config_validate.hpp"

#include <string>

#include "runtime/universe.hpp"

namespace cmpi::runtime {

namespace {
constexpr std::size_t kRendezvousThresholdMin = 512;
}  // namespace

Status validate(const UniverseConfig& config) {
  const std::size_t threshold = config.rendezvous_threshold;
  if (threshold != 0 && threshold != ~std::size_t{0} &&
      threshold < kRendezvousThresholdMin) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_threshold must be 0 (default), SIZE_MAX "
        "(rendezvous off) or >= " +
        std::to_string(kRendezvousThresholdMin) + " bytes, got " +
        std::to_string(threshold));
  }
  return Status::ok();
}

}  // namespace cmpi::runtime
