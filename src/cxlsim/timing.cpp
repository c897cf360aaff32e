#include "cxlsim/timing.hpp"

#include <algorithm>
#include <cmath>

#include "common/align.hpp"

namespace cmpi::cxlsim {

simtime::Ns CxlTimingModel::cpu_copy_cost(std::size_t bytes,
                                          int streams) const noexcept {
  if (bytes == 0) {
    return 0;
  }
  double rate = params_.cpu_copy_bytes_per_ns;
  if (bytes > params_.contention_threshold) {
    // Working set exceeds the cache-friendly size: concurrent streams evict
    // each other and contend for DIMM row buffers. The slowdown grows with
    // how far past the threshold the message is (log2 scale, saturating)
    // and with the number of other streams on the same node.
    const double excess =
        std::min(1.0, std::log2(static_cast<double>(bytes) /
                                static_cast<double>(
                                    params_.contention_threshold)) /
                          params_.contention_span_log2);
    const int others = std::max(0, streams - 1);
    rate /= 1.0 + params_.contention_alpha * excess *
                      static_cast<double>(others);
  }
  return static_cast<double>(bytes) / rate;
}

simtime::Ns CxlTimingModel::uncached_cost(std::size_t total_size) const noexcept {
  const std::size_t lines = ceil_div(std::max<std::size_t>(total_size, 1),
                                     kCacheLineSize);
  const simtime::Ns per_line = total_size > params_.pcie_mps
                                   ? params_.uc_line_cost_large
                                   : params_.uc_line_cost_small;
  return static_cast<simtime::Ns>(lines) * per_line;
}

}  // namespace cmpi::cxlsim
