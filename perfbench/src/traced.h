// Copyright (c) 2026 The siri Authors. MIT license.
//
// Benchmark-side decorators for the traced run. Each wraps one layer's
// public interface and records a span (trace.h) around every call into
// it, so a layer's self time is its spans minus the spans of the layers it
// calls:
//
//   TracedIndex      ImmutableIndex        index.*      (client side)
//   TracedNodeStore  NodeStore             system.*     (ForkbaseClientStore)
//                                          store.*      (version_ops' store)
//   TracedTransport  net::Transport        net.*        (client side)
//   TracedEnv        io::Env               io.pages.* / io.refs.*
//
// The server's FileNodeStore is never wrapped: SiriServer::Start finds it
// by dynamic_cast to apply the group-flush window, so the io::Env seam is
// the only decoration on the server side.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "io/env.h"
#include "net/transport.h"
#include "store/node_store.h"
#include "trace.h"

namespace perfbench {

class TracedIndex : public siri::ImmutableIndex {
 public:
  explicit TracedIndex(std::unique_ptr<siri::ImmutableIndex> inner)
      : ImmutableIndex(inner->store_ptr()),
        inner_(std::move(inner)),
        put_batch_(Intern("index.put_batch." + inner_->name())) {}

  siri::ImmutableIndex* inner() const { return inner_.get(); }

  std::string name() const override { return inner_->name(); }
  siri::Hash EmptyRoot() const override { return inner_->EmptyRoot(); }
  siri::Result<siri::Hash> PutBatch(const siri::Hash& root,
                                    std::vector<siri::KV> kvs) override {
    ScopedSpan span(put_batch_);
    return inner_->PutBatch(root, std::move(kvs));
  }
  siri::Result<siri::Hash> DeleteBatch(const siri::Hash& root,
                                       std::vector<std::string> keys) override {
    ScopedSpan span("index.delete_batch");
    return inner_->DeleteBatch(root, std::move(keys));
  }
  siri::Result<std::optional<std::string>> Get(
      const siri::Hash& root, siri::Slice key,
      siri::LookupStats* stats = nullptr) const override {
    ScopedSpan span("index.get");
    return inner_->Get(root, key, stats);
  }
  siri::Result<siri::Proof> GetProof(const siri::Hash& root,
                                     siri::Slice key) const override {
    ScopedSpan span("index.get_proof");
    return inner_->GetProof(root, key);
  }
  siri::Status CollectPages(const siri::Hash& root,
                            siri::PageSet* pages) const override {
    ScopedSpan span("index.collect_pages");
    return inner_->CollectPages(root, pages);
  }
  siri::Status Scan(
      const siri::Hash& root,
      const std::function<void(siri::Slice, siri::Slice)>& fn) const override {
    ScopedSpan span("index.scan");
    return inner_->Scan(root, fn);
  }
  siri::Status RangeScan(
      const siri::Hash& root, siri::Slice lo, siri::Slice hi,
      const std::function<void(siri::Slice, siri::Slice)>& fn) const override {
    ScopedSpan span("index.range_scan");
    return inner_->RangeScan(root, lo, hi, fn);
  }
  siri::Result<siri::DiffResult> Diff(const siri::Hash& a,
                                      const siri::Hash& b) const override {
    ScopedSpan span("index.diff");
    return inner_->Diff(a, b);
  }
  std::unique_ptr<siri::ImmutableIndex> WithStore(
      siri::NodeStorePtr store) const override {
    return inner_->WithStore(std::move(store));
  }

 private:
  std::unique_ptr<siri::ImmutableIndex> inner_;
  const char* put_batch_;
};

/// Merge3 is not virtual, so it is traced here: one index.merge3 span
/// around the undecorated index's merge (its internal Diff/PutBatch calls
/// stay inside the span instead of opening nested index spans).
inline siri::Result<siri::Hash> TracedMerge3(
    siri::ImmutableIndex* index, const siri::Hash& ours,
    const siri::Hash& theirs, const siri::Hash& base,
    siri::ConflictResolver resolver) {
  if (auto* traced = dynamic_cast<TracedIndex*>(index)) {
    ScopedSpan span("index.merge3");
    return traced->inner()->Merge3(ours, theirs, base, std::move(resolver));
  }
  return index->Merge3(ours, theirs, base, std::move(resolver));
}

/// NodeStore decorator; \p layer names its spans ("system" for the client
/// store), and \p span_gets = false leaves Get unspanned. It also counts
/// the bytes of every PutMany batch (the staged pages each commit
/// digests) and keeps a bounded sample of those pages for the crypto
/// probe.
class TracedNodeStore : public siri::NodeStore {
 public:
  TracedNodeStore(siri::NodeStorePtr inner, const std::string& layer,
                  bool span_gets = true)
      : inner_(std::move(inner)),
        get_(span_gets ? Intern(layer + ".get") : nullptr),
        put_many_(Intern(layer + ".put_many")),
        other_(Intern(layer + ".other")) {}

  [[nodiscard]] siri::Hash Put(siri::Slice bytes) override {
    ScopedSpan span(other_);
    staged_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    return inner_->Put(bytes);
  }
  void PutMany(const siri::NodeBatch& batch) override {
    ScopedSpan span(put_many_);
    uint64_t bytes = 0;
    for (const auto& r : batch) bytes += r.bytes->size();
    staged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    Sample(batch);
    inner_->PutMany(batch);
  }
  siri::Result<std::shared_ptr<const std::string>> Get(
      const siri::Hash& h) override {
    if (get_ == nullptr) return inner_->Get(h);
    ScopedSpan span(get_);
    return inner_->Get(h);
  }
  bool Contains(const siri::Hash& h) const override {
    ScopedSpan span(other_);
    return inner_->Contains(h);
  }
  siri::Result<uint64_t> SizeOf(const siri::Hash& h) const override {
    ScopedSpan span(other_);
    return inner_->SizeOf(h);
  }
  Stats stats() const override { return inner_->stats(); }
  void ResetOpCounters() override { inner_->ResetOpCounters(); }
  siri::Status Flush() override {
    ScopedSpan span(other_);
    return inner_->Flush();
  }
  siri::Status DiskStatus() const override { return inner_->DiskStatus(); }

  uint64_t staged_bytes() const { return staged_bytes_.load(); }
  std::vector<std::shared_ptr<const std::string>> sample() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sample_;
  }

 private:
  static constexpr uint64_t kSampleBytes = 4 << 20;

  void Sample(const siri::NodeBatch& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : batch) {
      if (sample_bytes_ >= kSampleBytes) return;
      sample_bytes_ += r.bytes->size();
      sample_.push_back(r.bytes);
    }
  }

  siri::NodeStorePtr inner_;
  const char* get_;
  const char* put_many_;
  const char* other_;
  std::atomic<uint64_t> staged_bytes_{0};
  mutable std::mutex mu_;
  uint64_t sample_bytes_ = 0;  // guarded by mu_
  std::vector<std::shared_ptr<const std::string>> sample_;  // guarded by mu_
};

class TracedTransport : public siri::net::Transport {
 public:
  explicit TracedTransport(std::shared_ptr<siri::net::Transport> inner)
      : inner_(std::move(inner)) {}

  siri::Result<std::shared_ptr<const std::string>> Get(
      const siri::Hash& h) override {
    ScopedSpan span("net.get");
    return inner_->Get(h);
  }
  siri::Result<bool> Contains(const siri::Hash& h) override {
    ScopedSpan span("net.other");
    return inner_->Contains(h);
  }
  siri::Result<uint64_t> SizeOf(const siri::Hash& h) override {
    ScopedSpan span("net.other");
    return inner_->SizeOf(h);
  }
  siri::Result<siri::Hash> Put(siri::Slice bytes) override {
    ScopedSpan span("net.other");
    return inner_->Put(bytes);
  }
  siri::Status PutMany(const siri::NodeBatch& batch) override {
    ScopedSpan span("net.put_many");
    return inner_->PutMany(batch);
  }
  siri::Status Flush() override {
    ScopedSpan span("net.other");
    return inner_->Flush();
  }
  siri::Result<siri::NodeStore::Stats> StoreStats() override {
    return inner_->StoreStats();
  }
  siri::Status ResetServerOpCounters() override {
    return inner_->ResetServerOpCounters();
  }
  siri::Result<siri::Hash> Head(const std::string& branch) override {
    ScopedSpan span("net.head");
    return inner_->Head(branch);
  }
  siri::Result<siri::net::PublishResult> Publish(
      const siri::net::PublishRequest& req) override {
    ScopedSpan span("net.publish");
    return inner_->Publish(req);
  }
  siri::Result<siri::BranchStats> GetBranchStats(
      const std::string& branch) override {
    return inner_->GetBranchStats(branch);
  }
  siri::Result<std::vector<std::string>> ListBranches() override {
    return inner_->ListBranches();
  }
  Stats stats() const override { return inner_->stats(); }
  void SetPushSink(PushSink sink) override {
    inner_->SetPushSink(std::move(sink));
  }

 private:
  std::shared_ptr<siri::net::Transport> inner_;
};

/// io::Env decorator: spans io.<file>.{append,flush,sync,syncdir}, where
/// <file> is "pages" for the page log, "refs" for the ref log.
class TracedEnv : public siri::io::Env {
 public:
  explicit TracedEnv(siri::io::Env* base) : base_(base) {}

  siri::Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<siri::io::WritableFile>* out) override {
    std::unique_ptr<siri::io::WritableFile> file;
    siri::Status s = base_->NewWritableFile(path, truncate, &file);
    if (s.ok()) *out = std::make_unique<File>(std::move(file), Label(path));
    return s;
  }
  siri::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<siri::io::SequentialFile>* out) override {
    return base_->NewSequentialFile(path, out);
  }
  siri::Status ReadFileToString(const std::string& path,
                                std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  siri::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  siri::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  siri::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  siri::Status SyncDir(const std::string& path) override {
    ScopedSpan span(Intern(Label(path) + ".syncdir"));
    return base_->SyncDir(path);
  }

 private:
  struct File : siri::io::WritableFile {
    File(std::unique_ptr<siri::io::WritableFile> f, const std::string& label)
        : inner(std::move(f)),
          append(Intern(label + ".append")),
          flush(Intern(label + ".flush")),
          sync(Intern(label + ".sync")) {}
    siri::Status Append(siri::Slice data) override {
      ScopedSpan span(append);
      return inner->Append(data);
    }
    siri::Status Flush() override {
      ScopedSpan span(flush);
      return inner->Flush();
    }
    siri::Status Sync() override {
      ScopedSpan span(sync);
      return inner->Sync();
    }
    std::unique_ptr<siri::io::WritableFile> inner;
    const char* append;
    const char* flush;
    const char* sync;
  };

  static std::string Label(const std::string& path) {
    auto ends_with = [&](const char* suffix) {
      const std::string s(suffix);
      return path.size() >= s.size() &&
             path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("refs.log")) return "io.refs";
    if (path.find("pages.log") != std::string::npos) return "io.pages";
    return "io.other";
  }

  siri::io::Env* base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
