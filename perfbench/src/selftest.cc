// Copyright (c) 2026 The siri Authors. MIT license.
//
// Self-test of the benchmark's report arithmetic: the percentile picker
// and span self time. `python3 perfbench/run.py --self-test` runs it
// together with a short smoke run of every workload.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPickTail() {
  using perfbench::PickTail;
  // 1000 samples: p99 leaves exactly 10 beyond it; p99.9 leaves 1.
  perfbench::Tail t = PickTail(Range(1000));
  Expect(t.percentile == 99 && t.value == 990 && t.count == 1000,
         "1000 samples pick p99 = 990");
  // 10000 samples: p99.9 leaves 10 beyond.
  t = PickTail(Range(10000));
  Expect(t.percentile == 99.9 && t.value == 9990 && t.count == 10000,
         "10000 samples pick p99.9");
  // 999 samples: p99 leaves only 9 beyond (rank 990), so p95 it is.
  t = PickTail(Range(999));
  Expect(t.percentile == 95 && t.count == 999, "999 samples fall back to p95");
  Expect(perfbench::SamplesBeyond(999, 95) >= 10, "p95 of 999 has 10 beyond");
  // 20 samples: p50 leaves exactly 10 beyond.
  t = PickTail(Range(20));
  Expect(t.percentile == 50 && t.value == 10 && t.count == 20,
         "20 samples pick p50");
  // 15 samples: nothing has 10 beyond.
  t = PickTail(Range(15));
  Expect(t.percentile == 0 && t.count == 15, "15 samples have no tail");
  Expect(perfbench::SamplesBeyond(1000, 99.9) == 1, "p99.9 of 1000 leaves 1");
}

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start,
                         int64_t end) {
  perfbench::Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  using perfbench::UnionLength;
  Expect(UnionLength({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25,
         "union of overlapping intervals");
  Expect(UnionLength({{0, 10}, {5, 15}}, 8, 12) == 4, "union clipped to window");
  Expect(UnionLength({}, 0, 10) == 0, "empty union");

  // root [0,100) with children [10,30) and [20,50) (overlap counted once)
  // and [90,120) (clipped to the parent); grandchild [12,18) under the
  // first child only reduces the child's self time.
  const std::vector<perfbench::Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 2, 12, 18)};
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  Expect(self[0] == 100 - 40 - 10, "root self = duration - union of children");
  Expect(self[1] == 20 - 6, "child self excludes its grandchild");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self = duration");
}

void TestRecorder() {
  perfbench::Tracer::Clear();
  perfbench::Tracer::Enable(true);
  {
    perfbench::RequestScope request;
    perfbench::ScopedSpan outer("outer");
    perfbench::ScopedSpan inner("inner");
  }
  { perfbench::ScopedSpan loose("loose"); }
  perfbench::Tracer::Enable(false);
  { perfbench::ScopedSpan off("off"); }
  const auto spans = perfbench::Tracer::Collect();
  Expect(spans.size() == 3, "three spans recorded while enabled");
  const perfbench::Span* outer = nullptr;
  const perfbench::Span* inner = nullptr;
  const perfbench::Span* loose = nullptr;
  for (const auto& s : spans) {
    if (std::string(s.name) == "outer") outer = &s;
    if (std::string(s.name) == "inner") inner = &s;
    if (std::string(s.name) == "loose") loose = &s;
  }
  Expect(outer && inner && loose, "span names kept");
  if (outer && inner && loose) {
    Expect(inner->parent == outer->id && outer->parent == 0, "parent linkage");
    Expect(inner->request == outer->request && outer->request != 0,
           "spans of one request share its id");
    Expect(loose->request == 0, "no request outside a RequestScope");
  }
}

}  // namespace

int main() {
  TestPickTail();
  TestSelfTime();
  TestRecorder();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
