// Self-tests of the benchmark driver's statistics helpers (stats.hpp,
// spans.hpp). run.py runs them before every benchmark run; any failure
// stops the run. Build: part of perfbench/CMakeLists.txt.
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(n - i);  // descending: order must not matter
  }
  return v;
}

void percentile_needs_ten_samples_beyond() {
  using perfbench::percentile;
  expect(!percentile(iota(19), 50), "p50 of 19 samples is refused");
  expect(percentile(iota(20), 50) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile(iota(999), 99), "p99 of 999 samples is refused");
  expect(percentile(iota(1000), 99) == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(iota(99), 90), "p90 of 99 samples is refused");
  expect(percentile(iota(100), 90) == 90.0, "p90 of 1..100 is 90");
  expect(!percentile({}, 50), "percentile of nothing is refused");
  expect(!percentile(iota(100), 0), "p0 is not a percentile");
  expect(!percentile(iota(100), 100), "p100 is not a percentile");
}

void median_of_small_sets() {
  expect(perfbench::median({3, 1, 2}) == 2, "median of odd count");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "median of even count");
  expect(perfbench::median({}) == 0, "median of nothing is 0");
}

void ratio_carries_its_base() {
  const perfbench::Ratio r{1, 4};
  expect(r.value() == 0.25, "ratio value");
  expect(r.describe().find("/ 4") != std::string::npos,
         "ratio text names its base");
  expect(perfbench::Ratio{3, 0}.value() == 0, "ratio over empty base is 0");

  perfbench::Report rep;
  rep.add_ratio("x.share", r, "count");
  rep.add("y", 1.5, "s");
  const std::string json = rep.json();
  expect(json.find("\"x.share\": {\"value\": 0.25") != std::string::npos,
         "report prints the ratio");
  expect(json.find("\"x.share.base\": {\"value\": 4, \"unit\": \"count\"}") !=
             std::string::npos,
         "report prints the ratio's base next to it");
}

void report_counts_refused_percentiles() {
  perfbench::Report rep;
  rep.add_percentile("a", iota(1000), 99, "us");
  expect(rep.refused().empty(), "p99 over 1000 samples is reported");
  rep.add_percentile("b", iota(500), 99, "us");
  rep.add("c", 0, "1/s");
  expect(rep.refused() == std::vector<std::string>{"b"},
         "p99 over 500 samples is refused by name, a plain 0 is not");
  expect(rep.refused_json() == "[\"b\"]", "refused names as JSON");
}

void digest_tracks_every_sample() {
  const std::vector<double> a{1.0, 2.0, 3.0};
  expect(perfbench::digest(a) == perfbench::digest({1.0, 2.0, 3.0}),
         "equal series, equal digest");
  expect(perfbench::digest(a) != perfbench::digest({1.0, 2.0, 3.0000001}),
         "any changed sample changes the digest");
  expect(perfbench::digest(a) != perfbench::digest({2.0, 1.0, 3.0}),
         "order changes the digest");
}

void self_time_subtracts_children() {
  using perfbench::Span;
  using perfbench::SpanKind;
  // root [0, 100) with children [10, 30) and [40, 90); grandchild
  // [50, 60) inside the second child.
  const std::vector<Span> spans{
      {SpanKind::kBenchStep, -1, 0, 0, 100, 0, 1000},
      {SpanKind::kIsend, 0, 0, 10, 30, 100, 300},
      {SpanKind::kAllreduce, 0, 0, 40, 90, 400, 900},
      {SpanKind::kSend, 2, 0, 50, 60, 500, 600},
  };
  const std::vector<double> self = perfbench::self_times(spans);
  expect(self[0] == 30, "root self time excludes both children");
  expect(self[1] == 20, "leaf self time is its duration");
  expect(self[2] == 40, "child self time excludes the grandchild");
  expect(perfbench::span_layer(SpanKind::kAllreduce) == "coll",
         "layer is the name's prefix");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  median_of_small_sets();
  ratio_carries_its_base();
  report_counts_refused_percentiles();
  digest_tracks_every_sample();
  self_time_subtracts_children();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench self-test: ok\n");
  return 0;
}
