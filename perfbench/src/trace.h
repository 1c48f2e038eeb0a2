// Copyright (c) 2026 The siri Authors. MIT license.
//
// In-memory span recorder for the benchmark's traced run, plus the pure
// arithmetic the report is built from (percentile picking, span self
// time). Spans are recorded by the benchmark's own decorators around the
// calls into each layer's public interface; nothing inside the library is
// instrumented.
//
// A span carries its name, start and end (steady clock, ns), the span that
// was open on the same thread when it started (its parent), and the
// request id of the commit or lookup it belongs to (0 = none, e.g. the
// server's io spans, which run on server threads). Recording is off until
// Tracer::Enable(true); a disabled ScopedSpan costs one relaxed load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  ///< interned (static storage)
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not part of a commit or lookup
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Fresh request id (never 0).
  static uint64_t NewRequest();
  /// Every span recorded so far, from every thread, in no fixed order.
  /// Call only once the recording threads are quiescent.
  static std::vector<Span> Collect();
  static void Clear();
};

/// Returns a pointer with static storage duration equal to \p s.
const char* Intern(const std::string& s);

/// Records one span from construction to destruction on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool on_ = false;
};

/// Marks every span this thread records, while alive, with one request id.
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_ = 0;
};

// --- pure arithmetic (unit-tested by perfbench_selftest) ----------------

/// Length of the union of \p intervals ([start, end) pairs), each clipped
/// to [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi);

/// Self time of every span (same order as \p spans): its duration minus
/// the part of its interval covered by the union of its children.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Nearest-rank percentile of ascending \p sorted (p in (0, 100]).
double Percentile(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank \p p-th percentile of \p n.
size_t SamplesBeyond(size_t n, double p);

struct Tail {
  double percentile = 0;  ///< 0 when no candidate has 10 samples beyond
  double value = 0;
  size_t count = 0;  ///< total samples
};

/// The highest of p50, p75, p90, p95, p99, p99.9, p99.99 that has at
/// least ten samples beyond it, with its value and the sample count.
Tail PickTail(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
