// Checks of the benchmark's own helpers: the nearest-rank percentile and
// span self time. Exits non-zero on the first failed check.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace graphaug::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void EqualSamplesGiveEqualPercentiles() {
  // Losses that all read 1.21: a bucketed histogram interpolates p95 to
  // 1.95 here; nearest rank must return the observed value at every q.
  const std::vector<double> v(1000, 1.21);
  Check(*NearestRank(v, 0.5) == 1.21, "p50 of equal samples");
  Check(*NearestRank(v, 0.99) == 1.21, "p99 of equal samples");
  Check(*TailPercentile(v, 0.99) == 1.21, "reported p99 of equal samples");
}

void NearestRankPicksObservedRank() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  Check(*NearestRank(v, 0.5) == 3, "median of 1..5");
  Check(*NearestRank(v, 0.2) == 1, "p20 of 1..5 is rank 1");
  Check(*NearestRank(v, 0.21) == 2, "p21 of 1..5 is rank 2");
  Check(*NearestRank(v, 1.0) == 5, "p100 is the maximum");
  Check(!NearestRank({}, 0.5).has_value(), "empty samples have no median");
}

void TailNeedsTenSamplesBeyond() {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Check(TailPercentile(v, 0.99).has_value(), "p99 reported with 10 beyond");
  v.pop_back();
  Check(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Check(!TailPercentile(v, 0.99).has_value(), "p99 withheld with 9 beyond");
}

void SelfTimeSubtractsChildren() {
  SpanRecorder rec;
  const int parent = rec.Begin("parent");
  rec.Time("child", [] {});
  rec.Time("child", [] {});
  rec.End(parent);
  const std::vector<int64_t> self = rec.SelfTimes();
  const auto& s = rec.spans();
  Check(s[1].parent == parent && s[2].parent == parent, "children nest");
  Check(self[0] == SpanRecorder::Duration(s[0]) -
                       SpanRecorder::Duration(s[1]) -
                       SpanRecorder::Duration(s[2]),
        "parent self time excludes children");
  Check(self[1] == SpanRecorder::Duration(s[1]), "leaf self time is duration");
}

}  // namespace
}  // namespace graphaug::perfbench

int main() {
  using namespace graphaug::perfbench;
  EqualSamplesGiveEqualPercentiles();
  NearestRankPicksObservedRank();
  TailNeedsTenSamplesBeyond();
  SelfTimeSubtractsChildren();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
