#include "coll/cxl_collectives.hpp"

#include <cstring>
#include <vector>

#include "common/contracts.hpp"

namespace cmpi::coll {

CxlCollectives::CxlCollectives(runtime::RankCtx& ctx, const std::string& name,
                               std::size_t max_bytes)
    : ctx_(&ctx),
      max_bytes_(max_bytes),
      window_(rma::Window::create(ctx, "cxlcoll_" + name, max_bytes)) {}

void CxlCollectives::allgather(std::span<const std::byte> mine,
                               std::span<std::byte> all) {
  const int n = ctx_->nranks();
  const std::size_t sz = mine.size();
  CMPI_EXPECTS(sz <= max_bytes_);
  CMPI_EXPECTS(all.size() == sz * static_cast<std::size_t>(n));
  // Deposit own block, make it durable, rendezvous, then read peers
  // directly from the pool.
  window_.write_local(0, mine);
  window_.fence();
  for (int r = 0; r < n; ++r) {
    auto block = all.subspan(static_cast<std::size_t>(r) * sz).first(sz);
    if (r == ctx_->rank()) {
      std::memcpy(block.data(), mine.data(), sz);
    } else {
      window_.get(r, 0, block);
    }
  }
  // Close the epoch so the next collective may overwrite segments.
  window_.fence();
}

void CxlCollectives::bcast(int root, std::span<std::byte> data) {
  CMPI_EXPECTS(data.size() <= max_bytes_);
  if (ctx_->rank() == root) {
    window_.write_local(0, data);
  }
  window_.fence();
  if (ctx_->rank() != root) {
    window_.get(root, 0, data);
  }
  window_.fence();
}

void CxlCollectives::allreduce_sum(std::span<double> inout) {
  const int n = ctx_->nranks();
  CMPI_EXPECTS(inout.size() * sizeof(double) <= max_bytes_);
  window_.write_local(0, std::as_bytes(inout));
  window_.fence();
  std::vector<double> incoming(inout.size());
  for (int r = 0; r < n; ++r) {
    if (r == ctx_->rank()) {
      continue;
    }
    window_.get(r, 0, std::as_writable_bytes(std::span(incoming)));
    for (std::size_t i = 0; i < inout.size(); ++i) {
      inout[i] += incoming[i];
    }
    ctx_->clock().advance(static_cast<double>(inout.size()));
  }
  window_.fence();
}

}  // namespace cmpi::coll
