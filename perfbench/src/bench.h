// Copyright (c) 2026 The siri Authors. MIT license.
//
// Shared pieces of the benchmark program: run options, the metric report,
// the server rig that mirrors src/net/siri_server_main.cc's production
// configuration, socket clients, the timed lookup routine every workload
// uses, and the post-run durability check.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "traced.h"

namespace perfbench {

constexpr int kStructures = 4;
extern const char* const kStructureNames[kStructures];  // pos mbt mpt mvmb

/// Builds structure \p s over \p store with siri-server's geometry (MBT:
/// 8192 buckets, fanout 32).
std::unique_ptr<siri::ImmutableIndex> MakeIndex(int s, siri::NodeStorePtr store);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space for stores (inside the checkout)
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What one (untraced or traced) execution of a workload measured.
struct RunResult {
  MetricMap e2e;    ///< the gated end-to-end metrics
  MetricMap layer;  ///< per-layer metrics (traced executions)
  std::vector<std::string> info;    ///< informational lines (tails, notes)
  std::vector<std::string> errors;  ///< failed correctness checks
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// Records "<label> p50=… pXX=… n=…" in \p out->info: the median of
/// \p samples, the highest percentile with ten samples beyond it, and the
/// sample count.
void AddTailLine(const std::string& label, const std::string& unit,
                 std::vector<double> samples, RunResult* out);
double Median(std::vector<double> v);

/// Timing samples of one operation, split by structure.
struct Latencies {
  std::vector<double> by[kStructures];

  void Add(int s, double v) { by[s].push_back(v); }
  void Merge(const Latencies& o);
  std::vector<double> All() const;
};

/// The gated median of an operation: the mean of the four structures'
/// medians. Operations are spread over the structures in equal shares,
/// and a pooled median of four clusters would sit on the boundary between
/// two of them and jump from run to run. The info line adds the pooled
/// median, the per-structure medians and the pooled tail.
double StructureMedian(const std::string& label, const std::string& unit,
                       const Latencies& l, RunResult* out);

/// Builds \p base into each of the four indexes at once (one thread per
/// structure) and returns their roots.
siri::Result<std::vector<siri::Hash>> LoadBase(
    siri::ImmutableIndex* const* index, const std::vector<siri::KV>& base);

/// The in-process production server: FileNodeStore page log, RefLog via
/// BranchManager::AttachRefLog, the four structures registered,
/// SiriServer with default ServerOptions on a loopback ephemeral port.
struct Rig {
  std::string dir;
  std::unique_ptr<TracedEnv> env;  // traced executions only
  std::shared_ptr<siri::FileNodeStore> store;
  std::unique_ptr<siri::ForkbaseServlet> servlet;
  std::unique_ptr<siri::net::SiriServer> server;
  siri::ImmutableIndex* index[kStructures] = {};  // servlet-owned
  std::string branch[kStructures];
  siri::Hash base_root[kStructures];

  /// Opens the stores under \p dir, loads \p base into every structure's
  /// branch ("<prefix>-<structure>"), and starts the server.
  siri::Status Open(const std::string& dir, bool traced,
                    const std::vector<siri::KV>& base,
                    const std::string& prefix);
  /// Stops the server and closes the stores (files stay on disk).
  void Close();
  uint64_t LogBytes() const;  ///< pages.log + refs.log on disk
};

/// One socket client: SocketTransport + ForkbaseClientStore (default
/// options) and an index per structure over it. Traced clients decorate
/// the transport, the client store and the indexes.
struct Client {
  std::shared_ptr<siri::net::SocketTransport> socket;
  std::shared_ptr<siri::net::Transport> transport;
  std::shared_ptr<siri::ForkbaseClientStore> cstore;
  std::shared_ptr<TracedNodeStore> traced_store;  // traced only
  std::unique_ptr<siri::ImmutableIndex> index[kStructures];

  siri::Status Connect(int port, uint64_t cache_bytes, bool traced);
  /// Reads \p head's commit through the client store.
  siri::Result<siri::Commit> ReadCommit(const siri::Hash& head);
};

/// Counters of the timed lookup routine.
struct LookupCounters {
  uint64_t lookups = 0;
  uint64_t nodes_loaded = 0;
  uint64_t failed = 0;
  Latencies latency_us;

  void Merge(const LookupCounters& o);
};

/// One timed lookup: Get (and, when \p with_proof, GetProof +
/// VerifyProof) of \p key under \p root, checked against \p expected.
/// Failures are counted and described in \p err (first one only).
void TimedLookup(int structure, const siri::ImmutableIndex& index,
                 const siri::Hash& root, const std::string& key,
                 const std::string& expected, bool with_proof,
                 LookupCounters* c, std::string* err);

/// The fixed merge resolver of every workload: theirs wins.
std::optional<std::string> TheirsWins(const std::string& key,
                                      const std::optional<std::string>& ours,
                                      const std::optional<std::string>& theirs);

/// One acked commit, as the audit and durability checks need it.
struct CommitRecord {
  int structure = 0;
  siri::Hash parent_root;  ///< root the commit was built on
  siri::Hash new_root;     ///< root the client published
  siri::Hash head;         ///< acked head containing it
  std::vector<uint32_t> keys;  ///< record indices written
  uint64_t version = 0;        ///< ValueOf version of every write
};

/// Post-run durability check, outside the timed section: reopens
/// pages.log with FileNodeStore::Open and the ref log with AttachRefLog,
/// asserts every branch recovered at \p final_heads, every acked head
/// resolves, and CollectPages of its root finds every page.
void CheckDurability(const std::string& dir,
                     const std::vector<CommitRecord>& acked,
                     const std::map<std::string, siri::Hash>& final_heads,
                     RunResult* out);

/// getrusage peak resident set, MB.
double PeakRssMb();

/// Median ms of \p reps 4 KiB write+fsync probes of a file in \p dir.
double BareFsyncMs(const std::string& dir, int reps);

/// Nanoseconds per byte of Sha256::Digest over \p pages (median of 5
/// passes).
double DigestNsPerByte(
    const std::vector<std::shared_ptr<const std::string>>& pages);

/// The workloads (workloads.cc).
RunResult RunSharedBranch(const Options& o, bool traced);
RunResult RunReadMostly(const Options& o, bool traced);
RunResult RunVersionOps(const Options& o, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
