// Statistics helpers of the benchmark driver: guarded percentiles, ratios
// that carry their base, and the virtual-time digest. Header-only so the
// self-tests (stats_test.cpp) build without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it, so p50 needs 20 samples and p99 needs 1000.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (p in (0, 100)) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie above the chosen rank.
inline std::optional<double> percentile(std::vector<double> samples,
                                        double p) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0 && p < 100)) {
    return std::nullopt;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  const std::size_t k = std::max<std::size_t>(rank, 1);  // 1-based
  if (n - k < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   samples.end());
  return samples[k - 1];
}

/// Median of a small set (setup times of the passes of one run); plain
/// middle element, no tail guard: the median of n values always has
/// n/2 values on each side.
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// A share or a rate: part over base. The base travels with the value so
/// a reader can tell 0.5 of 2 from 0.5 of 2 million.
struct Ratio {
  double part = 0;
  double base = 0;

  [[nodiscard]] double value() const noexcept {
    return base > 0 ? part / base : 0;
  }
  /// "0.25 (1 / 4)" — the value, then part and base.
  [[nodiscard]] std::string describe() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.6g (%.6g / %.6g)", value(), part, base);
    return buf;
  }
};

/// FNV-1a over the exact bit patterns of a virtual-time series: equal
/// series give equal digests, any difference in any sample changes it.
inline std::uint64_t digest(const std::vector<double>& series) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : series) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Metrics in print order, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit, ""});
  }
  /// A ratio is always emitted together with its base, as `<name>.base`.
  void add_ratio(const std::string& name, const Ratio& r,
                 const std::string& base_unit) {
    entries_.push_back({name, r.value(), "ratio", r.describe()});
    entries_.push_back({name + ".base", r.base, base_unit, ""});
  }
  /// Percentile of `samples`, or a note when the tail guard refuses it
  /// (the value then reads 0).
  void add_percentile(const std::string& name,
                      const std::vector<double>& samples, double p,
                      const std::string& unit) {
    const std::optional<double> v = percentile(samples, p);
    char note[64];
    std::snprintf(note, sizeof note, "%sp%g of %zu samples",
                  v ? "" : "refused: ", p, samples.size());
    entries_.push_back({name, v.value_or(0), unit, note});
    if (!v) {
      refused_.push_back(name);
    }
  }

  /// Names of the percentiles the tail guard refused, in print order.
  [[nodiscard]] const std::vector<std::string>& refused() const {
    return refused_;
  }

  /// refused() as a JSON list of strings.
  [[nodiscard]] std::string refused_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < refused_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + refused_[i] + "\"";
    }
    return out + "]";
  }

  void print_lines(const char* header) const {
    std::printf("%s\n", header);
    for (const Entry& e : entries_) {
      std::printf("  %-34s %16.6f %-10s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> refused_;
};

}  // namespace perfbench
