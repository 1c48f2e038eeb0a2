// Copyright (c) 2026 The siri Authors. MIT license.
//
// The three workloads. Each spreads its operations over the four
// structures in equal shares, derives every input from the seed, checks
// every result it can, and reports the end-to-end metrics (untraced) or
// the per-layer metrics (traced). README.md in this directory explains
// why each workload exists and which layer metric should move which
// end-to-end metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "common/random.h"
#include "metrics/dedup.h"
#include "version/commit.h"
#include "version/transfer.h"
#include "workload/ycsb.h"
#include "workload/zipfian.h"

namespace perfbench {
namespace {

using siri::Hash;
using siri::KV;
using siri::Status;

constexpr size_t kCommitBatch = 64;    // updates per client commit
constexpr uint64_t kWriterCache = 32ull << 20;
constexpr uint64_t kReaderCache = 2ull << 20;
// The read_mostly block writer holds every base page, so its commits time
// the solo publish path rather than remote page fetches.
constexpr uint64_t kBlockWriterCache = 64ull << 20;
constexpr int kDedupVersions = 16;  // versions per structure in dedup_ratio

double Ms(int64_t ns) { return ns / 1e6; }

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  return siri::SplitMix64(&state);
}

void SleepUntil(int64_t ns) {
  const int64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Wall time of each phase of a run, reported as an informational line.
class Phases {
 public:
  void Mark(const char* name) {
    const int64_t now = NowNs();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.2fs", name, (now - last_) / 1e9);
    line_ += buf;
    last_ = now;
  }
  std::string line() const { return "phases:" + line_; }

 private:
  int64_t last_ = NowNs();
  std::string line_;
};

// --- set-up ---------------------------------------------------------------

/// Runs \p fn on every client at once (one thread each); the first error.
Status ForEachClient(const std::vector<std::unique_ptr<Client>>& clients,
                     const std::function<Status(Client&)>& fn) {
  std::vector<Status> status(clients.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] { status[i] = fn(*clients[i]); });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Runs \p setup \p reps times (each in a fresh directory, tearing down
/// all but the last) and returns the median wall time in seconds. A traced
/// run sets up once per execution.
double RepeatSetup(const Options& o, const std::string& name, int reps,
                   const std::function<Status(const std::string&)>& setup,
                   const std::function<void()>& teardown, RunResult* out) {
  if (o.trace) reps = 1;
  std::vector<double> secs;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string dir =
        o.work_dir + "/" + name + "-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    const int64_t start = NowNs();
    Status s = setup(dir);
    secs.push_back((NowNs() - start) / 1e9);
    if (!s.ok()) {
      out->Fail("setup: " + s.ToString());
      return 0;
    }
    if (rep + 1 < reps) {
      teardown();
      std::filesystem::remove_all(dir);
    }
  }
  AddTailLine("setup_s", "s", secs, out);
  return Median(secs);
}

/// One version-transfer pack of each structure's base version.
siri::Result<std::vector<siri::VersionPack>> PackBases(Rig& rig) {
  std::vector<siri::VersionPack> packs;
  for (int i = 0; i < kStructures; ++i) {
    auto pack = siri::PackVersions(*rig.index[i], {rig.base_root[i]});
    if (!pack.ok()) return pack.status();
    packs.push_back(std::move(*pack));
  }
  return packs;
}

/// Warms \p c's cache with the base versions (PutMany write-allocates).
Status Unpack(Client& c, const std::vector<siri::VersionPack>& packs) {
  for (const auto& p : packs) {
    Status s = siri::UnpackVersions(p, c.cstore.get());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// --- counters around the timed window -------------------------------------

struct Snapshot {
  siri::net::Transport::Stats net;
  siri::ForkbaseClientStore::RemoteStats remote;
  siri::net::SiriServer::Stats server;
  siri::BranchStats branch;
  uint64_t fsyncs = 0, coalesced = 0, dedup_skips = 0, puts = 0;
  uint64_t log_bytes = 0, staged_bytes = 0;
  uint64_t fallbacks = 0;
};

Snapshot Take(const Rig& rig, const std::vector<Client*>& clients) {
  Snapshot s;
  for (const Client* c : clients) {
    const auto n = c->socket->stats();
    s.net.rpcs += n.rpcs;
    s.net.bytes_sent += n.bytes_sent;
    s.net.bytes_received += n.bytes_received;
    s.net.syscalls += n.syscalls;
    s.net.retries += n.retries;
    s.net.reconnects += n.reconnects;
    s.net.deadline_misses += n.deadline_misses;
    const auto r = c->cstore->remote_stats();
    s.remote.remote_gets += r.remote_gets;
    s.remote.cache_hits += r.cache_hits;
    s.remote.coalesced_gets += r.coalesced_gets;
    if (c->traced_store) s.staged_bytes += c->traced_store->staged_bytes();
  }
  s.server = rig.server->stats();
  for (int i = 0; i < kStructures; ++i) {
    const auto b = rig.servlet->branches()->branch_stats(rig.branch[i]);
    s.branch.commits += b.commits;
    s.branch.cas_failures += b.cas_failures;
    s.branch.merge_retries += b.merge_retries;
  }
  s.fallbacks = rig.servlet->combiner()->stats().fallbacks;
  s.fsyncs = rig.store->fsync_count();
  s.coalesced = rig.store->coalesced_flushes();
  s.dedup_skips = rig.store->dedup_skips();
  s.puts = rig.store->stats().puts;
  s.log_bytes = rig.LogBytes();
  return s;
}

// --- per-layer analysis of a traced execution -----------------------------

struct SpanView {
  std::vector<Span> spans;
  std::vector<int64_t> self;
  std::unordered_map<std::string, std::vector<size_t>> by_name;

  explicit SpanView(std::vector<Span> all) : spans(std::move(all)) {
    self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name].push_back(i);
  }
  const std::vector<size_t>& Named(const std::string& n) const {
    static const std::vector<size_t> kNone;
    auto it = by_name.find(n);
    return it == by_name.end() ? kNone : it->second;
  }
  double MeanSelfNs(const std::string& n) const {
    const auto& idx = Named(n);
    double total = 0;
    for (size_t i : idx) total += self[i];
    return idx.empty() ? 0 : total / idx.size();
  }
  double MeanNs(const std::string& n) const {
    const auto& idx = Named(n);
    double total = 0;
    for (size_t i : idx) total += spans[i].duration();
    return idx.empty() ? 0 : total / idx.size();
  }
  double MedianNs(const std::string& n) const {
    std::vector<double> d;
    for (size_t i : Named(n)) d.push_back(spans[i].duration());
    return Median(d);
  }
};

/// Every per-layer metric name with its unit; each execution reports all
/// of them (0 where the workload has no such layer, e.g. no wire in
/// version_ops).
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const auto* names = new std::vector<std::pair<std::string, std::string>>{
      {"index.put_batch_self_ms.pos", "ms"}, {"index.put_batch_self_ms.mbt", "ms"},
      {"index.put_batch_self_ms.mpt", "ms"}, {"index.put_batch_self_ms.mvmb", "ms"},
      {"index.get_self_us", "us"}, {"index.nodes_loaded_per_lookup", "count"},
      {"index.proof_verify_us", "us"}, {"index.diff_self_ms", "ms"},
      {"index.merge3_self_ms", "ms"}, {"index.dedup_ratio.pos", "ratio"},
      {"index.dedup_ratio.mbt", "ratio"}, {"index.dedup_ratio.mpt", "ratio"},
      {"index.dedup_ratio.mvmb", "ratio"},
      {"crypto.digest_ns_per_byte", "ns/B"}, {"crypto.staged_bytes_per_commit", "B"},
      {"system.cache_hit_ratio", "ratio"}, {"system.remote_gets_per_lookup", "count"},
      {"system.miss_wait_us", "us"}, {"system.remote_gets_per_commit", "count"},
      {"system.coalesced_get_ratio", "ratio"},
      {"net.rpc_us.head", "us"}, {"net.rpc_us.get", "us"},
      {"net.rpc_us.put_many", "us"}, {"net.rpc_us.publish", "us"},
      {"net.rpcs_per_commit", "count"}, {"net.bytes_per_commit", "B"},
      {"net.syscalls_per_commit", "count"}, {"net.retries", "count"},
      {"net.reconnects", "count"}, {"net.deadline_misses", "count"},
      {"net.server_frame_errors", "count"}, {"net.degraded_rejects", "count"},
      {"version.commits_per_publish", "ratio"}, {"version.landed_per_attempt", "ratio"},
      {"version.merge_retries_per_commit", "ratio"},
      {"version.fallbacks_per_commit", "ratio"},
      {"store.fsyncs_per_commit", "ratio"}, {"store.coalesced_flushes_per_commit", "ratio"},
      {"store.dedup_skip_ratio", "ratio"}, {"store.appended_bytes_per_commit", "B"},
      {"io.pages.sync_ms", "ms"}, {"io.pages.syncs_per_commit", "ratio"},
      {"io.refs.sync_ms", "ms"}, {"io.refs.syncs_per_commit", "ratio"},
      {"io.sync_busy_share", "ratio"}, {"io.bare_fsync_ms", "ms"},
      {"commit.unattributed_ms", "ms"}, {"commit.schedule_late_p99_ms", "ms"},
      {"failed_op_ratio", "ratio"},
  };
  return *names;
}

/// Writes the traced execution's spans (the first kMaxWritten) next to
/// the stores, for offline inspection (name,id,parent,request,start,end).
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  constexpr size_t kMaxWritten = 500000;  // bounds the file, not the report
  std::ofstream f(path, std::ios::trunc);
  f << "name,id,parent,request,start_ns,end_ns\n";
  for (size_t i = 0; i < spans.size() && i < kMaxWritten; ++i) {
    const Span& s = spans[i];
    f << s.name << ',' << s.id << ',' << s.parent << ',' << s.request << ','
      << s.start_ns << ',' << s.end_ns << '\n';
  }
}

/// Inputs of the per-layer report besides the spans.
struct LayerInputs {
  int64_t t0 = 0, t1 = 0;  // timed window
  uint64_t commits = 0;    // acked commits in the window
  uint64_t lookups = 0;
  uint64_t nodes_loaded = 0;
  uint64_t lookup_remote_gets = 0;  // remote gets of the lookup clients
  uint64_t commit_remote_gets = 0;  // remote gets of the committing clients
  Snapshot before, after;
  bool has_server = false;
  std::vector<std::shared_ptr<const std::string>> staged_sample;
  uint64_t staged_bytes = 0;
  double dedup[kStructures] = {};
  double schedule_late_p99_ms = 0;
  double bare_fsync_ms = 0;
};

void ReportLayers(const LayerInputs& in, const std::string& trace_path,
                  RunResult* out) {
  std::vector<Span> all = Tracer::Collect();
  Tracer::Clear();
  WriteSpans(trace_path, all);
  const SpanView v(std::move(all));
  MetricMap& m = out->layer;
  for (const auto& [name, unit] : LayerMetricNames()) m[name] = Metric{0, unit};
  auto set = [&](const std::string& name, double value) { m[name].value = value; };

  for (int i = 0; i < kStructures; ++i) {
    set(std::string("index.put_batch_self_ms.") + kStructureNames[i],
        v.MeanSelfNs(std::string("index.put_batch.") + kStructureNames[i]) / 1e6);
    set(std::string("index.dedup_ratio.") + kStructureNames[i], in.dedup[i]);
  }
  set("index.get_self_us", v.MeanSelfNs("index.get") / 1e3);
  set("index.nodes_loaded_per_lookup", Ratio(in.nodes_loaded, in.lookups));
  set("index.proof_verify_us", v.MeanNs("index.proof_verify") / 1e3);
  set("index.diff_self_ms", v.MeanSelfNs("index.diff") / 1e6);
  set("index.merge3_self_ms", v.MeanSelfNs("index.merge3") / 1e6);

  set("crypto.digest_ns_per_byte", DigestNsPerByte(in.staged_sample));
  set("crypto.staged_bytes_per_commit", Ratio(in.staged_bytes, in.commits));

  // Lookup requests, and the client-store gets of theirs that crossed the
  // wire (a net.get child) — the time lookups spent waiting on misses.
  std::unordered_set<uint64_t> lookup_requests;
  for (size_t i : v.Named("lookup")) lookup_requests.insert(v.spans[i].request);
  std::unordered_set<uint64_t> remote_parents;
  for (size_t i : v.Named("net.get")) remote_parents.insert(v.spans[i].parent);
  double miss_wait_ns = 0;
  for (size_t i : v.Named("system.get")) {
    const Span& s = v.spans[i];
    if (remote_parents.count(s.id) && lookup_requests.count(s.request)) {
      miss_wait_ns += s.duration();
    }
  }
  set("system.miss_wait_us", Ratio(miss_wait_ns / 1e3, in.lookups));
  set("system.remote_gets_per_lookup", Ratio(in.lookup_remote_gets, in.lookups));
  set("system.remote_gets_per_commit", Ratio(in.commit_remote_gets, in.commits));

  // Commit coverage: the commit span minus the self time of its
  // client-side descendants (index, system). What remains is the time in
  // RPCs — wire and server — which this run cannot split further.
  std::unordered_map<uint64_t, double> client_self_ns;
  for (size_t i = 0; i < v.spans.size(); ++i) {
    const Span& s = v.spans[i];
    if (s.request != 0 && std::strncmp(s.name, "net.", 4) != 0 &&
        std::strcmp(s.name, "commit") != 0) {
      client_self_ns[s.request] += v.self[i];
    }
  }
  double unattributed_ns = 0;
  const auto& commit_spans = v.Named("commit");
  for (size_t i : commit_spans) {
    const Span& s = v.spans[i];
    unattributed_ns += s.duration() - client_self_ns[s.request];
  }
  set("commit.unattributed_ms", Ratio(unattributed_ns / 1e6, commit_spans.size()));
  set("commit.schedule_late_p99_ms", in.schedule_late_p99_ms);
  set("io.bare_fsync_ms", in.bare_fsync_ms);
  set("failed_op_ratio", Ratio(out->failed, out->attempted));

  if (in.has_server) {
    const Snapshot& a = in.before;
    const Snapshot& b = in.after;
    const double hits = b.remote.cache_hits - a.remote.cache_hits;
    const double misses = b.remote.remote_gets - a.remote.remote_gets;
    const double coalesced = b.remote.coalesced_gets - a.remote.coalesced_gets;
    set("system.cache_hit_ratio", Ratio(hits + coalesced, hits + misses + coalesced));
    set("system.coalesced_get_ratio", Ratio(coalesced, misses + coalesced));
    set("net.rpc_us.head", v.MedianNs("net.head") / 1e3);
    set("net.rpc_us.get", v.MedianNs("net.get") / 1e3);
    set("net.rpc_us.put_many", v.MedianNs("net.put_many") / 1e3);
    set("net.rpc_us.publish", v.MedianNs("net.publish") / 1e3);
    const double commits = in.commits;
    set("net.rpcs_per_commit", Ratio(b.net.rpcs - a.net.rpcs, commits));
    set("net.bytes_per_commit",
        Ratio((b.net.bytes_sent + b.net.bytes_received) -
                  (a.net.bytes_sent + a.net.bytes_received),
              commits));
    set("net.syscalls_per_commit", Ratio(b.net.syscalls - a.net.syscalls, commits));
    set("net.retries", b.net.retries);
    set("net.reconnects", b.net.reconnects);
    set("net.deadline_misses", b.net.deadline_misses);
    set("net.server_frame_errors", b.server.frame_errors);
    set("net.degraded_rejects", b.server.degraded_rejects);
    const double swings = b.branch.commits - a.branch.commits;
    const double cas = b.branch.cas_failures - a.branch.cas_failures;
    set("version.commits_per_publish", Ratio(commits, swings));
    set("version.landed_per_attempt", Ratio(swings, swings + cas));
    set("version.merge_retries_per_commit",
        Ratio(b.branch.merge_retries - a.branch.merge_retries, commits));
    set("version.fallbacks_per_commit", Ratio(b.fallbacks - a.fallbacks, commits));
    set("store.fsyncs_per_commit", Ratio(b.fsyncs - a.fsyncs, commits));
    set("store.coalesced_flushes_per_commit",
        Ratio(b.coalesced - a.coalesced, commits));
    set("store.dedup_skip_ratio", Ratio(b.dedup_skips - a.dedup_skips, b.puts - a.puts));
    set("store.appended_bytes_per_commit", Ratio(b.log_bytes - a.log_bytes, commits));

    std::vector<std::pair<int64_t, int64_t>> syncs;
    for (const char* file : {"pages", "refs"}) {
      const std::string name = std::string("io.") + file + ".sync";
      uint64_t n = 0;
      double total_ns = 0;
      for (size_t i : v.Named(name)) {
        const Span& s = v.spans[i];
        if (s.start_ns < in.t0 || s.start_ns >= in.t1) continue;
        ++n;
        total_ns += s.duration();
        syncs.emplace_back(s.start_ns, s.end_ns);
      }
      set(std::string("io.") + file + ".sync_ms", Ratio(total_ns / 1e6, n));
      set(std::string("io.") + file + ".syncs_per_commit", Ratio(n, commits));
    }
    set("io.sync_busy_share",
        Ratio(UnionLength(syncs, in.t0, in.t1), in.t1 - in.t0));
  }
}

// --- commits and version operations of the server workloads -------------

/// Root of commit \p head, read server-side (untimed bookkeeping).
Hash RootOf(Rig& rig, const Hash& head) {
  auto c = rig.servlet->branches()->ReadCommit(head);
  return c.ok() ? c->root : Hash::Zero();
}

/// One client commit cycle on structure \p s: Head, read the head commit,
/// PutBatch(\p batch) onto its root, Publish with expected_head — inside
/// one "commit" span and request. Fills \p rec's roots and acked head.
Status CommitCycle(Client& c, Rig& rig, int s, std::vector<KV> batch,
                   const std::string& author, const std::string& message,
                   CommitRecord* rec, Latencies* update_ms) {
  RequestScope request;
  ScopedSpan span("commit");
  auto head = c.transport->Head(rig.branch[s]);
  if (!head.ok()) return head.status();
  auto commit = c.ReadCommit(*head);
  if (!commit.ok()) return commit.status();
  rec->parent_root = commit->root;
  const int64_t u0 = NowNs();
  auto next = c.index[s]->PutBatch(commit->root, std::move(batch));
  update_ms->Add(s, Ms(NowNs() - u0));
  if (!next.ok()) return next.status();
  rec->new_root = *next;
  siri::net::PublishRequest pub;
  pub.structure = kStructureNames[s];
  pub.branch = rig.branch[s];
  pub.new_root = *next;
  pub.author = author;
  pub.message = message;
  pub.expected_head = *head;
  auto ack = c.transport->Publish(pub);
  if (!ack.ok()) return ack.status();
  rec->head = ack->head;
  return Status::OK();
}

/// The version operations a committing client runs on its own acked
/// commits, spread over the load phase instead of bunched after it (a
/// post-load burst of a few seconds lands wholly inside or outside a host
/// stall): on each structure, every kDiffEvery-th commit a Diff(parent,
/// new root) — exactly the commit's own writes, checked at once — and
/// every kMergeEvery-th a
/// Merge3(previous new root, new root, previous parent) with the client's
/// previous commit on the same structure, as if the two had been made
/// concurrently. Merges are checked after the run by Verify.
class VersionAudit {
 public:
  static constexpr uint64_t kDiffEvery = 4;
  static constexpr uint64_t kMergeEvery = 8;

  void AfterCommit(Client& c, const siri::YcsbGenerator& gen,
                   const CommitRecord& r) {
    const int s = r.structure;
    const uint64_t n = ++commits_[s];
    if (n % kDiffEvery == 0) {
      ++attempted;
      const int64_t start = NowNs();
      auto diff = c.index[s]->Diff(r.parent_root, r.new_root);
      diff_ms.Add(s, Ms(NowNs() - start));
      std::map<std::string, std::string> want;
      for (uint32_t k : r.keys) want[gen.KeyOf(k)] = gen.ValueOf(k, r.version);
      bool ok = diff.ok() && diff->size() == want.size();
      for (size_t e = 0; ok && e < diff->size(); ++e) {
        const siri::DiffEntry& entry = (*diff)[e];
        auto it = want.find(entry.key);
        ok = it != want.end() && entry.right == it->second;
      }
      if (!ok) Failed(std::string("diff on ") + kStructureNames[s] +
                      " differs from the commit's writes");
    }
    CommitRecord& prev = last_[s];
    if (!prev.keys.empty() && n % kMergeEvery == 0) {
      ++attempted;
      const int64_t start = NowNs();
      auto merged = TracedMerge3(c.index[s].get(), prev.new_root, r.new_root,
                                 prev.parent_root, TheirsWins);
      merge_ms.Add(s, Ms(NowNs() - start));
      if (merged.ok()) {
        merges_.push_back({prev, r, *merged});
      } else {
        Failed("merge on " + std::string(kStructureNames[s]) + ": " +
               merged.status().ToString());
      }
    }
    prev = r;
  }

  /// Each merge (checked server-side: its pages were uploaded by PutMany)
  /// holds every record, the later commit's writes, and the earlier
  /// commit's other writes.
  void Verify(Rig& rig, const siri::YcsbGenerator& gen, uint64_t records) {
    for (const Merged& m : merges_) {
      const siri::ImmutableIndex* index = rig.index[m.theirs.structure];
      auto n = index->Count(m.result);
      bool ok = n.ok() && *n == records;
      std::map<uint32_t, uint64_t> want;
      for (uint32_t k : m.ours.keys) want[k] = m.ours.version;
      for (uint32_t k : m.theirs.keys) want[k] = m.theirs.version;
      for (auto it = want.begin(); ok && it != want.end(); ++it) {
        auto got = index->Get(m.result, gen.KeyOf(it->first));
        ok = got.ok() && got->has_value() &&
             **got == gen.ValueOf(it->first, it->second);
      }
      if (!ok) Failed("merge differs from the expected merge");
    }
  }

  void Merge(const VersionAudit& o) {
    diff_ms.Merge(o.diff_ms);
    merge_ms.Merge(o.merge_ms);
    attempted += o.attempted;
    failed += o.failed;
    if (err.empty()) err = o.err;
  }

  Latencies diff_ms, merge_ms;
  uint64_t attempted = 0, failed = 0;
  std::string err;

 private:
  struct Merged {
    CommitRecord ours, theirs;
    Hash result;
  };

  void Failed(const std::string& what) {
    ++failed;
    if (err.empty()) err = "audit: " + what;
  }

  uint64_t commits_[kStructures] = {};
  CommitRecord last_[kStructures];
  std::vector<Merged> merges_;
};

/// dedup ratio over the base plus the first kDedupVersions acked heads of
/// each structure (a fixed count, so the figure does not drift with
/// throughput).
double DedupOverAcked(Rig& rig, const std::vector<CommitRecord>& acked,
                      double per_structure[kStructures]) {
  double union_bytes = 0, total_bytes = 0;
  for (int s = 0; s < kStructures; ++s) {
    std::vector<Hash> roots{rig.base_root[s]};
    for (const CommitRecord& r : acked) {
      if (r.structure == s && roots.size() <= kDedupVersions) {
        roots.push_back(RootOf(rig, r.head));
      }
    }
    auto d = siri::ComputeDedupStatsForRoots(*rig.index[s], roots);
    if (!d.ok()) continue;
    per_structure[s] = d->DeduplicationRatio();
    union_bytes += d->union_bytes;
    total_bytes += d->total_bytes;
  }
  return 1.0 - Ratio(union_bytes, total_bytes);
}

/// Checks every branch head: it holds all \p n records, and every record
/// a commit wrote (\p expected(s, i) > 0) holds its last written value.
/// One thread per structure (server-side reads are thread-safe).
void CheckHeads(Rig& rig, const siri::YcsbGenerator& gen, uint64_t n,
                const std::function<uint64_t(int, uint32_t)>& expected,
                RunResult* out) {
  bool ok[kStructures] = {};
  uint64_t wrong[kStructures] = {};
  std::vector<std::thread> threads;
  for (int s = 0; s < kStructures; ++s) {
    threads.emplace_back([&, s] {
      auto head = rig.servlet->branches()->Head(rig.branch[s]);
      if (!head.ok()) return;
      const Hash root = RootOf(rig, *head);
      auto count = rig.index[s]->Count(root);
      ok[s] = count.ok() && *count == n;
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t v = expected(s, i);
        if (v == 0) continue;
        auto got = rig.index[s]->Get(root, gen.KeyOf(i));
        if (!got.ok() || !got->has_value() || **got != gen.ValueOf(i, v)) {
          ++wrong[s];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int s = 0; s < kStructures; ++s) {
    out->Check(ok[s] && wrong[s] == 0,
               "check: " + rig.branch[s] + " head holds " +
                   std::to_string(wrong[s]) + " stale or missing writes");
  }
}

void FinishServerRun(Rig& rig, std::vector<std::unique_ptr<Client>>* clients,
                     const std::vector<CommitRecord>& acked, RunResult* out) {
  std::map<std::string, Hash> final_heads;
  for (int s = 0; s < kStructures; ++s) {
    auto h = rig.servlet->branches()->Head(rig.branch[s]);
    if (h.ok()) final_heads[rig.branch[s]] = *h;
  }
  const auto st = rig.server->stats();
  out->Check(st.frame_errors == 0 && st.degraded_rejects == 0 && !st.degraded,
             "server reported frame errors or degraded mode");
  clients->clear();
  rig.Close();
  CheckDurability(rig.dir, acked, final_heads, out);
  std::filesystem::remove_all(rig.dir);
}

void SetCommonE2E(RunResult* out, double setup_s) {
  out->e2e["setup_s"] = {setup_s, "s"};
  out->e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

double P99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 99);
}

}  // namespace

// ==========================================================================
// shared_branch: 3 writers publish to one branch at once.
// ==========================================================================

RunResult RunSharedBranch(const Options& o, bool traced) {
  constexpr uint64_t kRecords = 20000;
  constexpr int kWriters = 3;
  constexpr uint64_t kPhase = 24;  // commits per structure before moving on
  RunResult out;
  Phases phases;
  siri::YcsbGenerator gen(o.seed);
  const std::vector<KV> base = gen.GenerateRecords(kRecords);

  Rig rig;
  std::vector<std::unique_ptr<Client>> clients;
  const double setup_s = RepeatSetup(
      o, "shared_branch", 3,
      [&](const std::string& d) {
        Status s = rig.Open(d, traced, base, "shared");
        if (!s.ok()) return s;
        auto packs = PackBases(rig);
        if (!packs.ok()) return packs.status();
        for (int w = 0; w < kWriters; ++w) {
          clients.push_back(std::make_unique<Client>());
          s = clients.back()->Connect(rig.server->port(), kWriterCache, traced);
          if (!s.ok()) return s;
        }
        return ForEachClient(clients, [&](Client& c) { return Unpack(c, *packs); });
      },
      [&] {
        clients.clear();
        rig.Close();
      },
      &out);
  if (!out.errors.empty()) return out;
  phases.Mark("setup");

  constexpr int kReadBack = 4;  // lookups of each acked commit's writes
  struct Writer {
    std::vector<uint64_t> version[kStructures];  // per own record
    std::vector<CommitRecord> acked;
    Latencies commit_ms, update_ms;
    LookupCounters lookups;
    VersionAudit audit;
    uint64_t lookup_remote_gets = 0;
    uint64_t user_bytes = 0, attempted = 0, failed = 0;
    std::string err, lookup_err;
  };
  const uint64_t third = kRecords / kWriters;
  std::vector<Writer> writers(kWriters);
  std::atomic<uint64_t> landed{0};
  std::vector<Client*> cl;
  for (auto& c : clients) cl.push_back(c.get());

  LayerInputs layer;
  layer.has_server = true;
  layer.before = Take(rig, cl);
  const uint64_t log_before = rig.LogBytes();
  Tracer::Enable(traced);
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(o.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Writer& me = writers[w];
      Client& c = *clients[w];
      const uint64_t lo = w * third;
      for (auto& v : me.version) v.assign(third, 0);
      siri::ZipfianGenerator zipf(third, 0.9, Mix(o.seed, 1, w));
      siri::Rng pick(Mix(o.seed, 6, w));
      for (uint64_t seq = 1; NowNs() < deadline; ++seq) {
        CommitRecord rec;
        rec.version = seq * kWriters + w;  // unique per (writer, commit)
        std::vector<KV> batch;
        uint64_t bytes = 0;
        for (size_t k = 0; k < kCommitBatch; ++k) {
          const uint32_t i = static_cast<uint32_t>(lo + zipf.Next());
          rec.keys.push_back(i);
          batch.push_back(KV{gen.KeyOf(i), gen.ValueOf(i, rec.version)});
          bytes += batch.back().key.size() + batch.back().value.size();
        }
        const int s = static_cast<int>((landed.load() / kPhase) % kStructures);
        rec.structure = s;
        ++me.attempted;
        const int64_t start = NowNs();
        const Status err =
            CommitCycle(c, rig, s, std::move(batch), "w" + std::to_string(w),
                        "c" + std::to_string(seq), &rec, &me.update_ms);
        if (!err.ok()) {
          ++me.failed;
          if (me.err.empty()) me.err = "publish: " + err.ToString();
          continue;
        }
        me.commit_ms.Add(s, Ms(NowNs() - start));
        me.user_bytes += bytes;
        for (uint32_t i : rec.keys) me.version[s][i - lo] = rec.version;
        landed.fetch_add(1);
        // Read-back: some of this commit's writes, looked up at the acked
        // head, where the server's merge must have kept them.
        auto head = c.ReadCommit(rec.head);
        if (!head.ok()) {
          ++me.failed;
          if (me.lookup_err.empty()) me.lookup_err = "read-back: " + head.status().ToString();
        } else {
          const uint64_t remote = c.cstore->remote_stats().remote_gets;
          for (int q = 0; q < kReadBack; ++q) {
            const uint32_t i = rec.keys[pick.Uniform(rec.keys.size())];
            TimedLookup(s, *c.index[s], head->root, gen.KeyOf(i),
                        gen.ValueOf(i, rec.version), me.lookups.lookups % 10 == 0,
                        &me.lookups, &me.lookup_err);
          }
          me.lookup_remote_gets += c.cstore->remote_stats().remote_gets - remote;
        }
        me.audit.AfterCommit(c, gen, rec);
        me.acked.push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t t1 = NowNs();
  Tracer::Enable(false);
  phases.Mark("timed");
  layer.t0 = t0;
  layer.t1 = t1;
  layer.after = Take(rig, cl);
  const uint64_t log_after = rig.LogBytes();

  std::vector<CommitRecord> acked;
  Latencies commit_ms, update_ms;
  LookupCounters lc;
  VersionAudit audit;
  uint64_t user_bytes = 0;
  for (auto& w : writers) {
    w.audit.Verify(rig, gen, kRecords);
    audit.Merge(w.audit);
    acked.insert(acked.end(), w.acked.begin(), w.acked.end());
    commit_ms.Merge(w.commit_ms);
    update_ms.Merge(w.update_ms);
    lc.Merge(w.lookups);
    layer.lookup_remote_gets += w.lookup_remote_gets;
    user_bytes += w.user_bytes;
    out.attempted += w.attempted + w.lookups.lookups;
    out.failed += w.failed + w.lookups.failed;
    if (!w.err.empty()) out.Fail(w.err);
    if (!w.lookup_err.empty()) out.Fail(w.lookup_err);
  }
  const double elapsed = (t1 - t0) / 1e9;
  layer.commits = acked.size();
  layer.commit_remote_gets = layer.after.remote.remote_gets -
                             layer.before.remote.remote_gets -
                             layer.lookup_remote_gets;
  layer.staged_bytes = layer.after.staged_bytes - layer.before.staged_bytes;

  out.attempted += audit.attempted;
  out.failed += audit.failed;
  if (!audit.err.empty()) out.Fail(audit.err);
  const Latencies& diff_ms = audit.diff_ms;
  const Latencies& merge_ms = audit.merge_ms;
  auto expected_version = [&](int s, uint32_t i) -> uint64_t {
    if (i >= kWriters * third) return 0;
    const uint64_t w = i / third;
    return writers[w].version[s][i - w * third];
  };
  layer.lookups = lc.lookups;
  layer.nodes_loaded = lc.nodes_loaded;
  if (traced) layer.staged_sample = clients[0]->traced_store->sample();

  CheckHeads(rig, gen, kRecords, expected_version, &out);
  const double dedup = DedupOverAcked(rig, acked, layer.dedup);

  SetCommonE2E(&out, setup_s);
  out.e2e["commits_per_s"] = {acked.size() / elapsed, "1/s"};
  out.e2e["commit_p50_ms"] = {StructureMedian("commit_ms", "ms", commit_ms, &out), "ms"};
  out.e2e["commit_p99_ms"] = {P99(commit_ms.All()), "ms"};
  out.e2e["lookups_per_s"] = {lc.lookups / elapsed, "1/s"};
  out.e2e["lookup_p50_us"] = {StructureMedian("lookup_us", "us", lc.latency_us, &out), "us"};
  out.e2e["lookup_p99_us"] = {P99(lc.latency_us.All()), "us"};
  out.e2e["update_p50_ms"] = {StructureMedian("update_ms", "ms", update_ms, &out), "ms"};
  out.e2e["diff_p50_ms"] = {StructureMedian("diff_ms", "ms", diff_ms, &out), "ms"};
  out.e2e["merge_p50_ms"] = {StructureMedian("merge_ms", "ms", merge_ms, &out), "ms"};
  out.e2e["dedup_ratio"] = {dedup, "ratio"};
  out.e2e["store_bytes_per_user_byte"] = {Ratio(log_after - log_before, user_bytes), "ratio"};

  if (traced) layer.bare_fsync_ms = BareFsyncMs(rig.dir, 16);
  phases.Mark("checks");
  FinishServerRun(rig, &clients, acked, &out);
  phases.Mark("durability");
  // Once the server has stopped, no server thread still records spans.
  if (traced) ReportLayers(layer, o.work_dir + "/spans-shared_branch.csv", &out);
  out.info.push_back(phases.line());
  return out;
}

// ==========================================================================
// read_mostly: 2 Zipf readers with small caches + 1 scheduled block writer.
// ==========================================================================

RunResult RunReadMostly(const Options& o, bool traced) {
  constexpr uint64_t kRecords = 32000;
  constexpr int kReaders = 2;
  constexpr double kBlocksPerSecond = 50;
  constexpr int kRefreshEvery = 64;
  RunResult out;
  Phases phases;
  siri::YcsbGenerator gen(o.seed);
  const std::vector<KV> base = gen.GenerateRecords(kRecords);

  // Which block last wrote each record, per structure. The writer appends
  // before publishing, so a reader at head "block J" finds the value of
  // the last entry <= J.
  struct WriteLog {
    std::shared_mutex mu;
    std::vector<std::vector<uint32_t>> blocks;
  };
  WriteLog log[kStructures];
  auto version_at = [&](int s, uint32_t i, uint64_t block) -> uint64_t {
    std::shared_lock<std::shared_mutex> lock(log[s].mu);
    const auto& b = log[s].blocks[i];
    auto it = std::upper_bound(b.begin(), b.end(), block);
    return it == b.begin() ? 0 : *(it - 1);
  };

  Rig rig;
  std::vector<std::unique_ptr<Client>> clients;  // readers..., writer
  auto warm = [&](Client& c) {
    // Untimed Zipf lookups so the small reader caches start hot.
    siri::ZipfianGenerator zipf(kRecords, 0.99, Mix(o.seed, 9));
    for (int s = 0; s < kStructures; ++s) {
      for (int q = 0; q < 250; ++q) {
        auto got = c.index[s]->Get(rig.base_root[s], gen.KeyOf(zipf.Next()));
        if (!got.ok()) return got.status();
      }
    }
    return Status::OK();
  };
  const double setup_s = RepeatSetup(
      o, "read_mostly", 3,
      [&](const std::string& d) {
        Status s = rig.Open(d, traced, base, "ledger");
        if (!s.ok()) return s;
        auto packs = PackBases(rig);
        if (!packs.ok()) return packs.status();
        for (int r = 0; r <= kReaders; ++r) {
          clients.push_back(std::make_unique<Client>());
          s = clients.back()->Connect(rig.server->port(),
                                      r < kReaders ? kReaderCache : kBlockWriterCache,
                                      traced);
          if (!s.ok()) return s;
        }
        return ForEachClient(clients, [&](Client& c) {
          return &c == clients.back().get() ? Unpack(c, *packs) : warm(c);
        });
      },
      [&] {
        clients.clear();
        rig.Close();
      },
      &out);
  if (!out.errors.empty()) return out;
  phases.Mark("setup");
  for (auto& l : log) l.blocks.assign(kRecords, {});
  // The workload's premise: a reader cache at least 4x smaller than any
  // one structure's page set.
  uint64_t smallest = UINT64_MAX;
  for (int s = 0; s < kStructures; ++s) {
    auto fp = siri::ComputeFootprint(*rig.index[s], {rig.base_root[s]});
    smallest = std::min<uint64_t>(smallest, fp.ok() ? fp->bytes : 0);
  }
  out.Check(smallest >= 4 * kReaderCache,
            "read_mostly: a structure's page set is under 4x the reader cache");
  out.info.push_back("read_mostly: smallest page set " +
                     std::to_string(smallest >> 10) + " KiB, reader cache " +
                     std::to_string(kReaderCache >> 10) + " KiB");

  std::vector<Client*> cl;
  for (auto& c : clients) cl.push_back(c.get());
  Client& writer = *clients[kReaders];
  std::vector<LookupCounters> reader_counts(kReaders);
  std::vector<std::string> reader_err(kReaders);
  std::vector<uint64_t> head_failures(kReaders, 0);

  LayerInputs layer;
  layer.has_server = true;
  layer.before = Take(rig, cl);
  const auto writer_remote_before = writer.cstore->remote_stats().remote_gets;
  uint64_t reader_remote_before = 0;
  for (int r = 0; r < kReaders; ++r) {
    reader_remote_before += clients[r]->cstore->remote_stats().remote_gets;
  }
  const uint64_t log_before = rig.LogBytes();
  Tracer::Enable(traced);
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(o.seconds * 1e9);

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Client& c = *clients[r];
      LookupCounters& lc = reader_counts[r];
      siri::ZipfianGenerator zipf(kRecords, 0.99, Mix(o.seed, 3, r));
      uint64_t n = 0;
      for (uint64_t refresh = 0; NowNs() < deadline; ++refresh) {
        const int s = static_cast<int>((refresh + r) % kStructures);
        auto head = c.transport->Head(rig.branch[s]);
        auto commit = head.ok() ? c.ReadCommit(*head)
                                : siri::Result<siri::Commit>(head.status());
        uint64_t block = 0;
        const bool is_block =
            commit.ok() && commit->message.rfind("block ", 0) == 0;
        if (is_block) block = std::strtoull(commit->message.c_str() + 6, nullptr, 10);
        if (!commit.ok() || (!is_block && commit->message != "base")) {
          ++head_failures[r];
          continue;
        }
        for (int q = 0; q < kRefreshEvery && NowNs() < deadline; ++q) {
          const uint32_t i = static_cast<uint32_t>(zipf.Next());
          const std::string key = gen.KeyOf(i);
          const std::string value = gen.ValueOf(i, version_at(s, i, block));
          TimedLookup(s, *c.index[s], commit->root, key, value, n++ % 10 == 0, &lc,
                      &reader_err[r]);
        }
      }
    });
  }

  std::vector<CommitRecord> acked;
  // The gated commit latency is the block's own cycle (start to ack): on
  // this open loop the from-due time also carries every earlier block's
  // stall, so its tail is set by the run's worst host hiccup. The from-due
  // figures and the schedule's lateness are reported beside it.
  Latencies commit_ms, update_ms, due_ms;
  std::vector<double> late_ms;
  VersionAudit audit;
  uint64_t user_bytes = 0, writer_failed = 0, writer_attempted = 0;
  std::string writer_err;
  threads.emplace_back([&] {
    siri::ZipfianGenerator zipf(kRecords, 0.99, Mix(o.seed, 4));
    const int64_t period = static_cast<int64_t>(1e9 / kBlocksPerSecond);
    for (uint64_t b = 0;; ++b) {
      const int64_t due = t0 + static_cast<int64_t>(b) * period;
      if (due >= deadline) break;
      const int s = static_cast<int>(b % kStructures);
      CommitRecord rec;
      rec.structure = s;
      rec.version = b / kStructures + 1;  // the structure's block number
      std::vector<KV> batch;
      uint64_t bytes = 0;
      for (size_t k = 0; k < kCommitBatch; ++k) {
        const uint32_t i = static_cast<uint32_t>(zipf.Next());
        rec.keys.push_back(i);
        batch.push_back(KV{gen.KeyOf(i), gen.ValueOf(i, rec.version)});
        bytes += batch.back().key.size() + batch.back().value.size();
      }
      {
        std::unique_lock<std::shared_mutex> lock(log[s].mu);
        for (uint32_t i : rec.keys) {
          auto& v = log[s].blocks[i];
          if (v.empty() || v.back() != rec.version) v.push_back(rec.version);
        }
      }
      SleepUntil(due);
      const int64_t start = NowNs();
      late_ms.push_back(Ms(start - due));
      ++writer_attempted;
      const Status err = CommitCycle(writer, rig, s, std::move(batch), "writer",
                                     "block " + std::to_string(rec.version),
                                     &rec, &update_ms);
      if (!err.ok()) {
        ++writer_failed;
        if (writer_err.empty()) writer_err = "publish: " + err.ToString();
        continue;
      }
      commit_ms.Add(s, Ms(NowNs() - start));
      due_ms.Add(s, Ms(NowNs() - due));
      user_bytes += bytes;
      audit.AfterCommit(writer, gen, rec);
      acked.push_back(std::move(rec));
    }
  });
  for (auto& t : threads) t.join();
  const int64_t t1 = NowNs();
  Tracer::Enable(false);
  phases.Mark("timed");
  layer.t0 = t0;
  layer.t1 = t1;
  layer.after = Take(rig, cl);
  const uint64_t log_after = rig.LogBytes();
  const double elapsed = (t1 - t0) / 1e9;

  LookupCounters lc;
  for (int r = 0; r < kReaders; ++r) {
    lc.Merge(reader_counts[r]);
    if (!reader_err[r].empty()) out.Fail(reader_err[r]);
    if (head_failures[r] != 0) out.Fail("reader could not read a branch head");
    out.failed += head_failures[r];
    layer.lookup_remote_gets += clients[r]->cstore->remote_stats().remote_gets;
  }
  layer.lookup_remote_gets -= reader_remote_before;
  layer.commit_remote_gets =
      writer.cstore->remote_stats().remote_gets - writer_remote_before;
  out.attempted += lc.lookups + writer_attempted;
  out.failed += lc.failed + writer_failed;
  if (!writer_err.empty()) out.Fail(writer_err);
  layer.commits = acked.size();
  layer.lookups = lc.lookups;
  layer.nodes_loaded = lc.nodes_loaded;
  layer.staged_bytes = layer.after.staged_bytes - layer.before.staged_bytes;
  layer.schedule_late_p99_ms = P99(late_ms);
  StructureMedian("commit_from_due_ms", "ms", due_ms, &out);
  out.info.back() += " pooled p99=" + std::to_string(P99(due_ms.All()));
  out.info.push_back("schedule: " + std::to_string(acked.size()) + " blocks at " +
                     std::to_string(kBlocksPerSecond) + "/s, lateness p50=" +
                     std::to_string(Median(late_ms)) + "ms p99=" +
                     std::to_string(layer.schedule_late_p99_ms) + "ms");

  if (traced) layer.staged_sample = writer.traced_store->sample();
  audit.Verify(rig, gen, kRecords);
  out.attempted += audit.attempted;
  out.failed += audit.failed;
  if (!audit.err.empty()) out.Fail(audit.err);
  const Latencies& diff_ms = audit.diff_ms;
  const Latencies& merge_ms = audit.merge_ms;

  uint64_t last_block[kStructures] = {};
  for (const CommitRecord& r : acked) {
    last_block[r.structure] = std::max(last_block[r.structure], r.version);
  }
  CheckHeads(rig, gen, kRecords,
             [&](int s, uint32_t i) { return version_at(s, i, last_block[s]); },
             &out);
  const double dedup = DedupOverAcked(rig, acked, layer.dedup);

  SetCommonE2E(&out, setup_s);
  out.e2e["commits_per_s"] = {acked.size() / elapsed, "1/s"};
  out.e2e["commit_p50_ms"] = {StructureMedian("commit_ms", "ms", commit_ms, &out), "ms"};
  out.e2e["commit_p99_ms"] = {P99(commit_ms.All()), "ms"};
  out.e2e["lookups_per_s"] = {lc.lookups / elapsed, "1/s"};
  out.e2e["lookup_p50_us"] = {StructureMedian("lookup_us", "us", lc.latency_us, &out), "us"};
  out.e2e["lookup_p99_us"] = {P99(lc.latency_us.All()), "us"};
  out.e2e["update_p50_ms"] = {StructureMedian("update_ms", "ms", update_ms, &out), "ms"};
  out.e2e["diff_p50_ms"] = {StructureMedian("diff_ms", "ms", diff_ms, &out), "ms"};
  out.e2e["merge_p50_ms"] = {StructureMedian("merge_ms", "ms", merge_ms, &out), "ms"};
  out.e2e["dedup_ratio"] = {dedup, "ratio"};
  out.e2e["store_bytes_per_user_byte"] = {Ratio(log_after - log_before, user_bytes), "ratio"};

  if (traced) layer.bare_fsync_ms = BareFsyncMs(rig.dir, 16);
  phases.Mark("checks");
  FinishServerRun(rig, &clients, acked, &out);
  phases.Mark("durability");
  // Once the server has stopped, no server thread still records spans.
  if (traced) ReportLayers(layer, o.work_dir + "/spans-read_mostly.csv", &out);
  out.info.push_back(phases.line());
  return out;
}

// ==========================================================================
// version_ops: in-process sibling versions, Diff and Merge3.
// ==========================================================================

RunResult RunVersionOps(const Options& o, bool traced) {
  constexpr uint64_t kRecords = 20000;
  constexpr size_t kBatch = 256;
  constexpr size_t kShared = kBatch / 4;  // keys of a also written by b
  constexpr size_t kNew = 64;             // fresh keys per sibling
  constexpr int kChecks = 16;             // sampled lookups per merge
  RunResult out;
  Phases phases;
  siri::YcsbGenerator gen(o.seed);
  const std::vector<KV> base = gen.GenerateRecords(kRecords);

  std::shared_ptr<siri::InMemoryNodeStore> mem;
  std::shared_ptr<TracedNodeStore> traced_store;
  std::unique_ptr<siri::BranchManager> branches;
  std::unique_ptr<siri::ImmutableIndex> index[kStructures];
  std::unique_ptr<siri::ImmutableIndex> plain[kStructures];  // untraced views
  Hash base_root[kStructures];
  const double setup_s = RepeatSetup(
      o, "version_ops", 5,  // set-up is short, so noisier
      [&](const std::string&) {
        mem = siri::NewInMemoryNodeStore();
        siri::NodeStorePtr store = mem;
        if (traced) {
          // Store gets are not spanned: an in-memory hash lookup per node
          // visit would be most of the trace and none of the signal.
          traced_store = std::make_shared<TracedNodeStore>(mem, "store",
                                                           /*span_gets=*/false);
          store = traced_store;
        }
        branches = std::make_unique<siri::BranchManager>(store);
        siri::ImmutableIndex* loaders[kStructures];
        for (int s = 0; s < kStructures; ++s) {
          plain[s] = MakeIndex(s, mem);
          loaders[s] = plain[s].get();
          index[s] = MakeIndex(s, store);
          if (traced) index[s] = std::make_unique<TracedIndex>(std::move(index[s]));
        }
        auto roots = LoadBase(loaders, base);
        if (!roots.ok()) return roots.status();
        for (int s = 0; s < kStructures; ++s) base_root[s] = (*roots)[s];
        return Status::OK();
      },
      [&] {
        for (auto& i : index) i.reset();
        for (auto& i : plain) i.reset();
        branches.reset();
        traced_store.reset();
        mem.reset();
      },
      &out);
  if (!out.errors.empty()) return out;
  phases.Mark("setup");

  Latencies commit_ms, update_ms, diff_ms, merge_ms;
  LookupCounters lc;
  std::string lookup_err;
  std::vector<Hash> window[kStructures];  // versions kept for dedup
  for (int s = 0; s < kStructures; ++s) window[s].push_back(base_root[s]);
  siri::PageSet keep;  // pages pruning must keep once the window is full
  uint64_t user_bytes = 0, stored_bytes = 0, commits = 0, cycles = 0;
  int64_t prune_ns = 0;
  uint64_t staged_before = 0;

  // The first kWarmCycles cycles are an untimed warm-up: they fill the
  // dedup window and grow the heap to the size pruning then holds it at,
  // so the timed cycles do not pay the growing heap's page faults.
  constexpr uint64_t kWarmCycles = 8;
  constexpr uint64_t kPruneEvery = 4;
  int64_t t0 = 0;
  int64_t deadline = INT64_MAX;
  for (uint64_t k = 0; NowNs() < deadline; ++k) {
    if (k == kWarmCycles) {
      out.attempted += lc.lookups;
      out.failed += lc.failed;
      commit_ms = update_ms = diff_ms = merge_ms = Latencies();
      lc = LookupCounters();
      user_bytes = stored_bytes = commits = 0;
      prune_ns = 0;
      staged_before = traced_store ? traced_store->staged_bytes() : 0;
      Tracer::Enable(traced);
      t0 = NowNs();
      deadline = t0 + static_cast<int64_t>(o.seconds * 1e9);
    }
    // Inputs of cycle k (never timed): sibling a writes kBatch records —
    // kBatch - kNew base records plus kNew fresh ones; sibling b rewrites
    // kShared of a's base records with other values, plus its own.
    siri::Rng rng(Mix(o.seed, 5, k));
    std::vector<uint32_t> a_keys, b_keys;
    std::unordered_set<uint32_t> taken;
    auto draw_base = [&](std::vector<uint32_t>* into, size_t n) {
      while (n > 0) {
        const uint32_t i = static_cast<uint32_t>(rng.Uniform(kRecords));
        if (taken.insert(i).second) {
          into->push_back(i);
          --n;
        }
      }
    };
    draw_base(&a_keys, kBatch - kNew);
    b_keys.assign(a_keys.begin(), a_keys.begin() + kShared);
    draw_base(&b_keys, kBatch - kNew - kShared);
    for (size_t t = 0; t < kNew; ++t) {
      a_keys.push_back(static_cast<uint32_t>(kRecords + k * 2 * kNew + t));
      b_keys.push_back(static_cast<uint32_t>(kRecords + k * 2 * kNew + kNew + t));
    }
    const uint64_t va = 2 * k + 1, vb = 2 * k + 2;
    auto make = [&](const std::vector<uint32_t>& keys, uint64_t v) {
      std::vector<KV> kvs;
      for (uint32_t i : keys) {
        kvs.push_back(KV{gen.KeyOf(i), gen.ValueOf(i, v)});
        user_bytes += kvs.back().key.size() + kvs.back().value.size();
      }
      return kvs;
    };
    std::vector<KV> a_kvs = make(a_keys, va), b_kvs = make(b_keys, vb);
    std::set<std::string> expected_diff;
    for (const KV& kv : a_kvs) expected_diff.insert(kv.key);
    for (const KV& kv : b_kvs) expected_diff.insert(kv.key);
    // Sampled checks of the merge: a-only, b-only, shared, fresh, untouched.
    std::vector<std::pair<uint32_t, uint64_t>> probes = {
        {a_keys.back(), va}, {b_keys.back(), vb}};
    for (size_t t = 0; t < 4; ++t) {
      probes.push_back({a_keys[kShared + t], va});
      probes.push_back({b_keys[kShared + t], vb});
      probes.push_back({a_keys[t], vb});  // shared: theirs (b) wins
    }
    for (uint32_t i = 0; probes.size() < kChecks; ++i) {
      if (!taken.count(i)) probes.push_back({i, 0});
    }

    const uint64_t bytes_before = mem->stats().unique_bytes;
    for (int s = 0; s < kStructures; ++s) {
      const std::string name = kStructureNames[s];
      Hash sibling[2];
      bool ok = true;
      for (int side = 0; side < 2 && ok; ++side) {
        ++out.attempted;
        const int64_t c0 = NowNs();
        auto root = index[s]->PutBatch(base_root[s], side == 0 ? a_kvs : b_kvs);
        update_ms.Add(s, Ms(NowNs() - c0));
        auto head = root.ok() ? branches->CommitOnBranch(
                                    "vo-" + name + (side ? "-b" : "-a"), *root,
                                    "vo", "cycle " + std::to_string(k))
                              : siri::Result<Hash>(root.status());
        commit_ms.Add(s, Ms(NowNs() - c0));
        ok = head.ok();
        if (ok) sibling[side] = *root;
        ++commits;
      }
      if (!ok) {
        ++out.failed;
        out.Fail("version_ops: commit on " + name + " failed");
        continue;
      }
      out.attempted += 2;
      int64_t op0 = NowNs();
      auto diff = index[s]->Diff(sibling[0], sibling[1]);
      diff_ms.Add(s, Ms(NowNs() - op0));
      std::set<std::string> got;
      if (diff.ok()) {
        for (const auto& e : *diff) got.insert(e.key);
      }
      if (!diff.ok() || got != expected_diff) {
        ++out.failed;
        out.Fail("version_ops: " + name + " diff differs from the changed-key set");
      }
      op0 = NowNs();
      auto merged = TracedMerge3(index[s].get(), sibling[0], sibling[1],
                                 base_root[s], TheirsWins);
      merge_ms.Add(s, Ms(NowNs() - op0));
      auto count = merged.ok() ? plain[s]->Count(*merged)
                               : siri::Result<uint64_t>(merged.status());
      if (!count.ok() || *count != kRecords + 2 * kNew) {
        ++out.failed;
        out.Fail("version_ops: " + name + " merge has the wrong record count");
        continue;
      }
      for (const auto& [i, v] : probes) {
        TimedLookup(s, *index[s], *merged, gen.KeyOf(i), gen.ValueOf(i, v),
                    lc.lookups % 10 == 0, &lc, &lookup_err);
      }
      if (window[s].size() <= kDedupVersions) {
        window[s].insert(window[s].end(), {sibling[0], sibling[1], *merged});
      }
    }
    stored_bytes += mem->stats().unique_bytes - bytes_before;
    ++cycles;

    // Drop the pages of versions past the dedup window (untimed): keep the
    // base, the window and the commit objects the branch heads point at.
    if (cycles % kPruneEvery == 0) {
      const int64_t p0 = NowNs();
      if (keep.empty() && window[0].size() > kDedupVersions) {
        for (int s = 0; s < kStructures; ++s) {
          for (const Hash& r : window[s]) (void)plain[s]->CollectPages(r, &keep);
        }
      }
      if (!keep.empty()) {
        siri::PageSet retain = keep;
        for (const auto& b : branches->ListBranches()) {
          auto h = branches->Head(b);
          if (h.ok()) retain.insert(*h);
        }
        mem->PruneExcept(retain);
      }
      prune_ns += NowNs() - p0;
    }
  }
  const int64_t t1 = NowNs();
  Tracer::Enable(false);
  phases.Mark("audit");
  const double active = (t1 - t0 - prune_ns) / 1e9;
  out.attempted += lc.lookups;
  out.failed += lc.failed;
  if (!lookup_err.empty()) out.Fail(lookup_err);

  LayerInputs layer;
  layer.t0 = t0;
  layer.t1 = t1;
  layer.commits = commits;
  layer.lookups = lc.lookups;
  layer.nodes_loaded = lc.nodes_loaded;
  double union_bytes = 0, total_bytes = 0;
  for (int s = 0; s < kStructures; ++s) {
    auto d = siri::ComputeDedupStatsForRoots(*plain[s], window[s]);
    if (!d.ok()) {
      out.Fail("version_ops: dedup over retained versions: " + d.status().ToString());
      continue;
    }
    layer.dedup[s] = d->DeduplicationRatio();
    union_bytes += d->union_bytes;
    total_bytes += d->total_bytes;
  }
  out.info.push_back("version_ops: " + std::to_string(cycles - kWarmCycles) +
                     " timed cycles after " + std::to_string(kWarmCycles) +
                     " warm-up cycles");

  SetCommonE2E(&out, setup_s);
  out.e2e["commits_per_s"] = {commits / active, "1/s"};
  out.e2e["commit_p50_ms"] = {StructureMedian("commit_ms", "ms", commit_ms, &out), "ms"};
  out.e2e["commit_p99_ms"] = {P99(commit_ms.All()), "ms"};
  out.e2e["lookups_per_s"] = {lc.lookups / active, "1/s"};
  out.e2e["lookup_p50_us"] = {StructureMedian("lookup_us", "us", lc.latency_us, &out), "us"};
  out.e2e["lookup_p99_us"] = {P99(lc.latency_us.All()), "us"};
  out.e2e["update_p50_ms"] = {StructureMedian("update_ms", "ms", update_ms, &out), "ms"};
  out.e2e["diff_p50_ms"] = {StructureMedian("diff_ms", "ms", diff_ms, &out), "ms"};
  out.e2e["merge_p50_ms"] = {StructureMedian("merge_ms", "ms", merge_ms, &out), "ms"};
  out.e2e["dedup_ratio"] = {1.0 - Ratio(union_bytes, total_bytes), "ratio"};
  out.e2e["store_bytes_per_user_byte"] = {Ratio(stored_bytes, user_bytes), "ratio"};

  if (traced) {
    layer.staged_bytes = traced_store->staged_bytes() - staged_before;
    layer.staged_sample = traced_store->sample();
    layer.bare_fsync_ms = BareFsyncMs(o.work_dir, 16);
    ReportLayers(layer, o.work_dir + "/spans-version_ops.csv", &out);
  }
  phases.Mark("report");
  out.info.push_back(phases.line());
  return out;
}

}  // namespace perfbench
