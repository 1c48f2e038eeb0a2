// Copyright (c) 2026 The siri Authors. MIT license.

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

namespace perfbench {
namespace {

// One buffer per recording thread, owned by the registry so spans survive
// the thread (server workers exit before the report is built).
struct ThreadBuf {
  std::vector<Span> spans;
  std::vector<uint64_t> open;  // ids of this thread's open spans
  uint64_t request = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_next_request{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>>& Buffers() {
  static auto* bufs = new std::vector<std::unique_ptr<ThreadBuf>>();
  return *bufs;
}

ThreadBuf* Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    Buffers().push_back(std::move(owned));
  }
  return buf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t Tracer::NewRequest() { return g_next_request.fetch_add(1); }

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (const auto& b : Buffers()) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : Buffers()) b->spans.clear();
}

const char* Intern(const std::string& s) {
  static std::mutex mu;
  static auto* pool = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return pool->insert(s).first->c_str();
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::enabled()) return;
  on_ = true;
  ThreadBuf* b = Local();
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = b->open.empty() ? 0 : b->open.back();
  span_.request = b->request;
  b->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  ThreadBuf* b = Local();
  b->open.pop_back();
  b->spans.push_back(span_);
}

RequestScope::RequestScope() {
  if (!Tracer::enabled()) return;
  ThreadBuf* b = Local();
  saved_ = b->request;
  b->request = Tracer::NewRequest();
}

RequestScope::~RequestScope() {
  if (!Tracer::enabled()) return;
  Local()->request = saved_;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool have = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!have || s > cur_end) {
      if (have) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      have = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (have) total += cur_end - cur_start;
  return total;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : UnionLength(it->second, s.start_ns, s.end_ns);
    out.push_back(s.duration() - covered);
  }
  return out;
}

namespace {
// Nearest rank ceil(p/100 * n), with a tolerance so 99.9% of 1000 is 999
// and not 1000 after floating-point rounding.
size_t NearestRank(size_t n, double p) {
  return static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}
}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  const size_t rank = NearestRank(n, p);
  return n > rank ? n - rank : 0;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = NearestRank(sorted.size(), p);
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

Tail PickTail(std::vector<double> samples) {
  static const double kCandidates[] = {99.99, 99.9, 99, 95, 90, 75, 50};
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.count = samples.size();
  for (double p : kCandidates) {
    if (SamplesBeyond(samples.size(), p) >= 10) {
      t.percentile = p;
      t.value = Percentile(samples, p);
      return t;
    }
  }
  return t;
}

}  // namespace perfbench
