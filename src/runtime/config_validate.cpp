#include "runtime/config_validate.hpp"

#include <string>

#include "runtime/universe.hpp"

namespace cmpi::runtime {

Status validate(const UniverseConfig& config) {
  const std::size_t threshold = config.rendezvous_threshold;
  if (threshold != 0 && threshold != ~std::size_t{0} &&
      threshold < tune::kRendezvousThresholdMin) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_threshold must be 0 (default), SIZE_MAX "
        "(rendezvous off) or >= " +
        std::to_string(tune::kRendezvousThresholdMin) + " bytes, got " +
        std::to_string(threshold));
  }
  const std::size_t quantum = config.rendezvous_quantum;
  if (quantum != 0 && (quantum < tune::kRendezvousQuantumMin ||
                       quantum > tune::kRendezvousQuantumMax)) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_quantum must be 0 (default) or in [" +
        std::to_string(tune::kRendezvousQuantumMin) + ", " +
        std::to_string(tune::kRendezvousQuantumMax) + "] bytes, got " +
        std::to_string(quantum));
  }
  if (config.rendezvous_inflight > tune::kRendezvousInflightMax) {
    return status::invalid_argument(
        "UniverseConfig: rendezvous_inflight must be 0 (default) or in [1, " +
        std::to_string(tune::kRendezvousInflightMax) + "], got " +
        std::to_string(config.rendezvous_inflight));
  }
  return Status::ok();
}

}  // namespace cmpi::runtime
