// Figure 7: bandwidth of two-sided MPI communication (multi-pair
// streaming send/recv through the SPSC ring matrix, 64 KiB cells).
//
// Paper shape targets: CXL SHM saturates ~6.05 GB/s (about 30% below its
// one-sided peak — every byte crosses the device twice); TCP/Ethernet
// converges to ~120 MB/s; TCP/CX-6 Dx keeps scaling with process count to
// >10 GB/s for large messages (up to ~2.1x over CXL at >4 procs); CXL up
// to ~48.2x over Ethernet.
#include "figure_common.hpp"

int main(int argc, char** argv) {
  using namespace cmpi;
  const bench::FigureOptions opts = bench::parse_options(argc, argv);
  osu::FigureTable table(
      "Figure 7: bandwidth of two-sided MPI communication", "Size", "MB/s");
  bench::run_standard_sweep(opts, table, osu::cxl_twosided_bw_mbps,
                            osu::net_twosided_bw_mbps);
  // Protocol ablation: the same sweep with the large-message rendezvous
  // path disabled, so the adaptive CXL series can be read against the
  // eager-only (chunked, two-copy) baseline it replaced.
  if (!opts.eager_only) {
    for (const int procs : opts.procs) {
      osu::SweepParams params = bench::sweep_params(opts, procs);
      params.rendezvous_threshold = ~std::size_t{0};
      const auto values = osu::cxl_twosided_bw_mbps(params);
      const std::string series =
          "CXL eager-only (" + std::to_string(procs) + "p)";
      for (std::size_t i = 0; i < params.sizes.size(); ++i) {
        table.set(series, params.sizes[i], values[i]);
      }
    }
  }
  bench::finish(table, opts);
  bench::print_headline_ratios(table, opts, /*higher_is_better=*/true);
  if (!opts.eager_only) {
    // Below the threshold both series run the identical eager path, so
    // restrict the comparison to the sizes the rendezvous path actually
    // handles (otherwise sub-threshold jitter pollutes the headline).
    const std::size_t threshold = p2p::Endpoint::rendezvous_threshold_for(
        opts.rendezvous_threshold, opts.cell_payload);
    for (const int procs : opts.procs) {
      const std::string suffix = " (" + std::to_string(procs) + "p)";
      double ratio = 0;
      for (const std::size_t size : table.rows()) {
        if (size <= threshold) {
          continue;
        }
        const double eager = table.at("CXL eager-only" + suffix, size);
        if (eager > 0) {
          ratio = std::max(ratio, table.at("CXL SHM" + suffix, size) / eager);
        }
      }
      std::printf(
          "  adaptive vs eager-only%s      up to %.2fx (sizes > %s)\n",
          suffix.c_str(), ratio, format_size(threshold).c_str());
    }
  }
  bench::write_json(table, opts);
  return 0;
}
