// Self-test of the benchmark's trace arithmetic: self time under
// overlapping children and the percentile sample-support rule. Exits
// non-zero on the first failed check; run.py runs it before every
// benchmark run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, double start,
                         double end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

void TestSelfTime() {
  using perfbench::SelfTime;
  // Parent [0, 10]; children [1, 4] and [2, 6] overlap (union [1, 6]),
  // [8, 9] is disjoint, [9.5, 12] sticks out past the parent's end.
  const std::vector<perfbench::Span> spans = {
      MakeSpan(1, 0, 0.0, 10.0), MakeSpan(2, 1, 1.0, 4.0),
      MakeSpan(3, 1, 2.0, 6.0),  MakeSpan(4, 1, 8.0, 9.0),
      MakeSpan(5, 1, 9.5, 12.0),
      // A grandchild is not a direct child and must not count.
      MakeSpan(6, 2, 6.5, 7.5)};
  // Covered: [1,6] + [8,9] + [9.5,10] = 5 + 1 + 0.5 = 6.5.
  Check(Near(SelfTime(spans[0], spans), 3.5),
        "self time subtracts the union of overlapping children");
  // Child 2's own child [6.5, 7.5] lies outside it: self time stays 3.
  Check(Near(SelfTime(spans[1], spans), 3.0),
        "children outside the span's interval are clipped away");
  // Identical children count once.
  const std::vector<perfbench::Span> same = {
      MakeSpan(1, 0, 0.0, 4.0), MakeSpan(2, 1, 1.0, 3.0),
      MakeSpan(3, 1, 1.0, 3.0), MakeSpan(4, 1, 1.0, 3.0)};
  Check(Near(SelfTime(same[0], same), 2.0),
        "identical parallel children are covered once");
  // Nested children: [1, 5] contains [2, 3].
  const std::vector<perfbench::Span> nested = {
      MakeSpan(1, 0, 0.0, 6.0), MakeSpan(2, 1, 1.0, 5.0),
      MakeSpan(3, 1, 2.0, 3.0)};
  Check(Near(SelfTime(nested[0], nested), 2.0),
        "a child inside another child adds nothing");
  Check(Near(perfbench::UnionLength({}, 0.0, 1.0), 0.0),
        "union of no intervals is empty");
}

void TestPercentileRule() {
  using perfbench::SupportedQuantile;
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  Check(!SupportedQuantile(v, 90).has_value(),
        "p90 of 99 samples has only 9 beyond it and is not reported");
  v.push_back(100);
  Check(SupportedQuantile(v, 90).has_value(),
        "p90 of 100 samples has 10 beyond it and is reported");
  Check(perfbench::SamplesBeyond(100, 90) == 10, "100 samples: 10 beyond");
  Check(perfbench::SamplesBeyond(99, 90) == 9, "99 samples: 9 beyond");
  Check(perfbench::SamplesBeyond(20, 50) == 10, "20 samples: 10 beyond p50");
  Check(perfbench::SamplesBeyond(0, 90) == 0, "no samples: none beyond");
  Check(!SupportedQuantile({}, 50).has_value(), "no samples: no median");
  Check(Near(*perfbench::Median({3.0, 1.0, 2.0}), 2.0), "median of three");
  Check(Near(*perfbench::Median({4.0, 1.0, 2.0, 3.0}), 2.5),
        "median of four interpolates");
  Check(Near(*perfbench::Quantile(v, 90), 90.1),
        "p90 of 1..100 interpolates between ranks");
}

}  // namespace

int main() {
  TestSelfTime();
  TestPercentileRule();
  if (g_failures == 0) std::printf("perfbench_selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
