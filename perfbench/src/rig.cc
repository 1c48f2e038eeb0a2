// Copyright (c) 2026 The siri Authors. MIT license.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench.h"
#include "crypto/sha256.h"
#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/pos/pos_tree.h"
#include "version/commit.h"

namespace perfbench {

using siri::Hash;
using siri::Status;

const char* const kStructureNames[kStructures] = {"pos", "mbt", "mpt", "mvmb"};

std::unique_ptr<siri::ImmutableIndex> MakeIndex(int s,
                                                siri::NodeStorePtr store) {
  switch (s) {
    case 0:
      return std::make_unique<siri::PosTree>(store);
    case 1: {
      siri::MbtOptions opt;
      opt.num_buckets = 8192;
      opt.fanout = 32;
      return std::make_unique<siri::Mbt>(store, opt);
    }
    case 2:
      return std::make_unique<siri::Mpt>(store);
    default:
      return std::make_unique<siri::MvmbTree>(store);
  }
}

void RunResult::Fail(const std::string& what) {
  if (errors.size() < 20) errors.push_back(what);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void AddTailLine(const std::string& label, const std::string& unit,
                 std::vector<double> samples, RunResult* out) {
  const double median = Median(samples);
  const Tail tail = PickTail(std::move(samples));
  char line[256];
  if (tail.percentile > 0) {
    std::snprintf(line, sizeof(line), "%s p50=%.6g%s p%g=%.6g%s n=%zu",
                  label.c_str(), median, unit.c_str(), tail.percentile,
                  tail.value, unit.c_str(), tail.count);
  } else {
    std::snprintf(line, sizeof(line),
                  "%s p50=%.6g%s n=%zu (too few samples for a tail)",
                  label.c_str(), median, unit.c_str(), tail.count);
  }
  out->info.emplace_back(line);
}

void Latencies::Merge(const Latencies& o) {
  for (int s = 0; s < kStructures; ++s) {
    by[s].insert(by[s].end(), o.by[s].begin(), o.by[s].end());
  }
}

std::vector<double> Latencies::All() const {
  std::vector<double> all;
  for (const auto& v : by) all.insert(all.end(), v.begin(), v.end());
  return all;
}

double StructureMedian(const std::string& label, const std::string& unit,
                       const Latencies& l, RunResult* out) {
  double sum = 0;
  std::string per;
  for (int s = 0; s < kStructures; ++s) {
    const double m = Median(l.by[s]);
    sum += m;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.6g", kStructureNames[s], m);
    per += buf;
  }
  AddTailLine(label, unit, l.All(), out);
  out->info.back() += " |" + per;
  return sum / kStructures;
}

siri::Result<std::vector<Hash>> LoadBase(
    siri::ImmutableIndex* const* index, const std::vector<siri::KV>& base) {
  constexpr size_t kLoadBatch = 4000;
  std::vector<Hash> roots(kStructures);
  std::vector<Status> status(kStructures);
  std::vector<std::thread> threads;
  for (int i = 0; i < kStructures; ++i) {
    threads.emplace_back([&, i] {
      Hash root = index[i]->EmptyRoot();
      for (size_t k = 0; k < base.size(); k += kLoadBatch) {
        std::vector<siri::KV> batch(
            base.begin() + k,
            base.begin() + std::min(k + kLoadBatch, base.size()));
        auto next = index[i]->PutBatch(root, std::move(batch));
        if (!next.ok()) {
          status[i] = next.status();
          return;
        }
        root = *next;
      }
      roots[i] = root;
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return roots;
}

Status Rig::Open(const std::string& path, bool traced,
                 const std::vector<siri::KV>& base,
                 const std::string& prefix) {
  dir = path;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir);
  }
  siri::io::Env* io = siri::io::Env::Default();
  if (traced) {
    env = std::make_unique<TracedEnv>(io);
    io = env.get();
  }
  Status s = siri::FileNodeStore::Open(io, dir + "/pages.log", &store);
  if (!s.ok()) return s;
  servlet = std::make_unique<siri::ForkbaseServlet>(store);
  siri::RefLog::Options ref_opts;
  ref_opts.env = io;
  s = servlet->branches()->AttachRefLog(dir + "/refs.log", ref_opts);
  if (!s.ok()) return s;
  for (int i = 0; i < kStructures; ++i) {
    servlet->RegisterIndex(MakeIndex(i, store));
    index[i] = servlet->IndexFor(kStructureNames[i]);
    branch[i] = prefix + "-" + kStructureNames[i];
  }

  // Base versions are built server-side (the bulk load is not part of
  // any measured client path), then committed as each branch's first head.
  auto loaded = LoadBase(index, base);
  if (!loaded.ok()) return loaded.status();
  for (int i = 0; i < kStructures; ++i) base_root[i] = (*loaded)[i];
  s = store->Flush();
  if (!s.ok()) return s;
  for (int i = 0; i < kStructures; ++i) {
    auto head = servlet->branches()->CommitOnBranch(branch[i], base_root[i],
                                                    "loader", "base");
    if (!head.ok()) return head.status();
  }
  s = servlet->branches()->SyncRefs();
  if (!s.ok()) return s;

  server = std::make_unique<siri::net::SiriServer>(servlet.get(),
                                                   siri::net::ServerOptions());
  s = server->Listen(0);
  if (!s.ok()) return s;
  s = server->Start();
  if (!s.ok()) return s;
  // Traced and untraced runs must serve with the same configuration; the
  // one setting Start applies to the store is the group-flush window.
  if (store->group_flush_window_micros() !=
      siri::net::ServerOptions().group_flush_window_micros) {
    return Status::InvalidArgument(
        "server did not apply its group-flush window");
  }
  return Status::OK();
}

void Rig::Close() {
  if (server) server->Stop();
  server.reset();
  servlet.reset();
  store.reset();
  env.reset();
}

uint64_t Rig::LogBytes() const {
  uint64_t total = 0;
  for (const char* f : {"/pages.log", "/refs.log"}) {
    struct stat st {};
    if (::stat((dir + f).c_str(), &st) == 0) total += st.st_size;
  }
  return total;
}

Status Client::Connect(int port, uint64_t cache_bytes, bool traced) {
  Status s = siri::net::SocketTransport::Connect("127.0.0.1", port, &socket);
  if (!s.ok()) return s;
  transport = socket;
  if (traced) transport = std::make_shared<TracedTransport>(socket);
  cstore = std::make_shared<siri::ForkbaseClientStore>(transport, cache_bytes);
  siri::NodeStorePtr store = cstore;
  if (traced) {
    traced_store = std::make_shared<TracedNodeStore>(cstore, "system");
    store = traced_store;
  }
  for (int i = 0; i < kStructures; ++i) {
    index[i] = MakeIndex(i, store);
    if (traced) index[i] = std::make_unique<TracedIndex>(std::move(index[i]));
  }
  return Status::OK();
}

siri::Result<siri::Commit> Client::ReadCommit(const Hash& head) {
  auto node = index[0]->store()->Get(head);
  if (!node.ok()) return node.status();
  return siri::Commit::Decode(**node);
}

void LookupCounters::Merge(const LookupCounters& o) {
  lookups += o.lookups;
  nodes_loaded += o.nodes_loaded;
  failed += o.failed;
  latency_us.Merge(o.latency_us);
}

void TimedLookup(int structure, const siri::ImmutableIndex& index,
                 const Hash& root, const std::string& key,
                 const std::string& expected, bool with_proof,
                 LookupCounters* c, std::string* err) {
  RequestScope request;
  bool ok = true;
  std::string why;
  const int64_t start = NowNs();
  {
    ScopedSpan span("lookup");
    siri::LookupStats stats;
    auto got = index.Get(root, key, &stats);
    c->nodes_loaded += stats.nodes_loaded;
    if (!got.ok()) {
      ok = false;
      why = "get " + key + ": " + got.status().ToString();
    } else if (!got->has_value() || **got != expected) {
      ok = false;
      why = "get " + key + ": wrong value";
    }
    if (ok && with_proof) {
      auto proof = index.GetProof(root, key);
      if (!proof.ok()) {
        ok = false;
        why = "proof " + key + ": " + proof.status().ToString();
      } else {
        ScopedSpan verify("index.proof_verify");
        if (!proof->value.has_value() || *proof->value != expected ||
            !index.VerifyProof(*proof, root)) {
          ok = false;
          why = "proof " + key + ": does not verify";
        }
      }
    }
  }
  c->latency_us.Add(structure, (NowNs() - start) / 1e3);
  ++c->lookups;
  if (!ok) {
    ++c->failed;
    if (err->empty()) *err = why;
  }
}

std::optional<std::string> TheirsWins(const std::string&,
                                      const std::optional<std::string>&,
                                      const std::optional<std::string>& theirs) {
  return theirs;
}

void CheckDurability(const std::string& dir,
                     const std::vector<CommitRecord>& acked,
                     const std::map<std::string, Hash>& final_heads,
                     RunResult* out) {
  std::shared_ptr<siri::FileNodeStore> store;
  Status s = siri::FileNodeStore::Open(dir + "/pages.log", &store);
  if (!s.ok()) {
    out->Fail("durability: reopen pages.log: " + s.ToString());
    return;
  }
  siri::BranchManager branches(store);
  s = branches.AttachRefLog(dir + "/refs.log");
  if (!s.ok()) {
    out->Fail("durability: reopen refs.log: " + s.ToString());
    return;
  }
  for (const auto& [name, head] : final_heads) {
    auto got = branches.Head(name);
    out->Check(got.ok() && *got == head,
               "durability: branch " + name + " did not recover its head");
  }
  std::unique_ptr<siri::ImmutableIndex> index[kStructures];
  siri::PageSet pages[kStructures];
  for (int i = 0; i < kStructures; ++i) index[i] = MakeIndex(i, store);
  for (const CommitRecord& r : acked) {
    auto commit = branches.ReadCommit(r.head);
    if (!commit.ok()) {
      out->Fail("durability: acked head " + r.head.ToHex() +
                " does not resolve: " + commit.status().ToString());
      continue;
    }
    s = index[r.structure]->CollectPages(commit->root, &pages[r.structure]);
    out->Check(s.ok(), "durability: pages of acked head " + r.head.ToHex() +
                           " missing: " + s.ToString());
  }
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

double BareFsyncMs(const std::string& dir, int reps) {
  const std::string path = dir + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return 0;
  std::vector<double> ms;
  const std::string block(4096, 'x');
  for (int i = 0; i < reps; ++i) {
    const int64_t start = NowNs();
    if (::write(fd, block.data(), block.size()) !=
            static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      break;
    }
    ms.push_back((NowNs() - start) / 1e6);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Median(ms);
}

double DigestNsPerByte(
    const std::vector<std::shared_ptr<const std::string>>& pages) {
  uint64_t bytes = 0;
  for (const auto& p : pages) bytes += p->size();
  if (bytes == 0) return 0;
  std::vector<double> passes;
  uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const int64_t start = NowNs();
    for (const auto& p : pages) sink += siri::Sha256::Digest(*p).Prefix64();
    passes.push_back(static_cast<double>(NowNs() - start) / bytes);
  }
  if (sink == 42) std::fprintf(stderr, " ");  // keeps the digests live
  return Median(passes);
}

}  // namespace perfbench
