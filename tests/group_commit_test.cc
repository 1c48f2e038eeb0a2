// Copyright (c) 2026 The siri Authors. MIT license.
//
// Group-commit publish pipeline (version/group_commit.h): the combining
// commit queue that batches K racing committers of one branch into one
// combined merge + one staged flush + one head swing. The deterministic
// tests drive PublishCombined (exactly what a leader does with a gathered
// batch) so batch composition is hand-controlled; the threaded tests and
// the `stress`-labeled rerun race real Publish calls through the lanes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "index/pos/pos_tree.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "tests/test_util.h"
#include "version/group_commit.h"
#include "version/occ.h"

namespace siri {
namespace {

using testing_util::Dump;
using testing_util::MakeKvs;

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = NewInMemoryNodeStore();
    index_ = std::make_unique<PosTree>(store_);
    mgr_ = std::make_unique<BranchManager>(store_);
    base_root_ = Put(index_->EmptyRoot(), MakeKvs(10));
  }

  Hash Put(const Hash& root, std::vector<KV> kvs) {
    auto r = index_->PutBatch(root, std::move(kvs));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  std::vector<KV> Keys(const std::string& prefix, int n) {
    std::vector<KV> kvs;
    for (int i = 0; i < n; ++i) {
      kvs.push_back(KV{prefix + "/" + std::to_string(i), "v" + prefix});
    }
    return kvs;
  }

  PublishSpec Spec(const std::string& branch, const Hash& new_root,
                   const std::string& author,
                   const std::optional<Hash>& expected_head) {
    PublishSpec s;
    s.index = index_.get();
    s.branch = branch;
    s.new_root = new_root;
    s.author = author;
    s.message = "by " + author;
    s.expected_head = expected_head;
    return s;
  }

  std::shared_ptr<InMemoryNodeStore> store_;
  std::unique_ptr<PosTree> index_;
  std::unique_ptr<BranchManager> mgr_;
  Hash base_root_;
};

// Three committers, all built on the same head, gathered into one batch:
// one combined publish lands all three. The head is a single combined
// commit whose parents are [old head, content_a, content_b, content_c],
// every author's keys are present, and each content commit preserves its
// author's lineage untouched.
TEST_F(GroupCommitTest, CombinedBatchLandsEveryMemberInOnePublish) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  CommitCombiner combiner(mgr_.get());
  std::vector<PublishSpec> specs;
  for (const char* who : {"a", "b", "c"}) {
    specs.push_back(
        Spec("main", Put(base_root_, Keys(who, 4)), who, *c0));
  }
  auto results = combiner.PublishCombined(specs);
  ASSERT_EQ(results.size(), 3u);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  // All three share one publish: same head, one combined wrapper.
  const Hash head = results[0]->head;
  for (auto& r : results) {
    EXPECT_EQ(r->head, head);
    EXPECT_EQ(r->merge_commits, 1);
    EXPECT_EQ(r->cas_failures, 0);
  }
  EXPECT_EQ(*mgr_->Head("main"), head);

  auto combined = mgr_->ReadCommit(head);
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ(combined->parents.size(), 4u);
  EXPECT_EQ(combined->parents[0], *c0);  // first parent: the prior head
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(combined->parents[i + 1], results[i]->commit);
    auto content = mgr_->ReadCommit(results[i]->commit);
    ASSERT_TRUE(content.ok());
    ASSERT_EQ(content->parents.size(), 1u);
    EXPECT_EQ(content->parents[0], *c0);  // lineage preserved
    EXPECT_LT(content->sequence, combined->sequence);
  }

  // No author's keys lost, base intact.
  auto content = Dump(*index_, combined->root);
  for (const char* who : {"a", "b", "c"}) {
    for (const KV& kv : Keys(who, 4)) EXPECT_EQ(content.at(kv.key), kv.value);
  }
  for (const KV& kv : MakeKvs(10)) EXPECT_EQ(content.at(kv.key), kv.value);

  const BranchStats stats = mgr_->branch_stats("main");
  EXPECT_EQ(stats.commits, 2u);  // init + ONE combined head swing
  EXPECT_EQ(stats.combined_commits, 3u);
  EXPECT_EQ(combiner.stats().publishes, 1u);
  EXPECT_EQ(combiner.stats().combined_commits, 3u);
}

// A batch of racing branch *creators*: the combined commit has no head
// parent, the content commits are parentless creation commits.
TEST_F(GroupCommitTest, CombinedCreationRaceMergesFromEmptyBase) {
  CommitCombiner combiner(mgr_.get());
  std::vector<PublishSpec> specs;
  for (const char* who : {"a", "b"}) {
    specs.push_back(Spec("fresh", Put(index_->EmptyRoot(), Keys(who, 3)), who,
                         std::nullopt));
  }
  auto results = combiner.PublishCombined(specs);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto combined = mgr_->ReadCommit(results[0]->head);
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ(combined->parents.size(), 2u);  // no prior head, two contents
  auto content = Dump(*index_, combined->root);
  for (const char* who : {"a", "b"}) {
    for (const KV& kv : Keys(who, 3)) EXPECT_EQ(content.at(kv.key), kv.value);
  }
}

// More specs than one commit can parent (16-parent decode limit): the
// combine chains maximal batches; every head stays decodable and no
// member is lost.
TEST_F(GroupCommitTest, OversizedBatchChainsWithinParentLimit) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  CommitCombiner combiner(mgr_.get());
  std::vector<PublishSpec> specs;
  for (int i = 0; i < 20; ++i) {
    const std::string who = "m" + std::to_string(i);
    specs.push_back(Spec("main", Put(base_root_, Keys(who, 2)), who, *c0));
  }
  auto results = combiner.PublishCombined(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The whole history — including both combined commits — decodes and
  // walks, and every member's keys are present at the final head.
  auto head = mgr_->Head("main");
  ASSERT_TRUE(head.ok());
  auto log = mgr_->Log(*head, std::numeric_limits<size_t>::max());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (const auto& [h, c] : *log) EXPECT_LE(c.parents.size(), 16u);
  auto head_commit = mgr_->ReadCommit(*head);
  ASSERT_TRUE(head_commit.ok());
  auto content = Dump(*index_, head_commit->root);
  for (int i = 0; i < 20; ++i) {
    for (const KV& kv : Keys("m" + std::to_string(i), 2)) {
      EXPECT_EQ(content.at(kv.key), kv.value);
    }
  }
  EXPECT_EQ(combiner.stats().publishes, 2u);  // 15 + 5
  EXPECT_EQ(mgr_->branch_stats("main").combined_commits, 20u);
}

// Two members of one batch write the same key divergently with no
// resolver: the first folds in cleanly, the second conflicts inside the
// combined merge, is dropped WITH its partial pages, and falls back to an
// individual CommitWithMerge retry — which also conflicts. The winner's
// value survives at the head, and the loser's whole adventure wrote
// exactly zero extra pages (the only store offer of the publish is the
// winner's content commit object).
TEST_F(GroupCommitTest, InBatchConflictFallsBackToIndividualRetry) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  CommitCombiner combiner(mgr_.get());
  std::vector<PublishSpec> specs = {
      Spec("main", Put(base_root_, {{"shared", "alice's"}}), "alice", *c0),
      Spec("main", Put(base_root_, {{"shared", "bob's"}}), "bob", *c0),
  };
  const uint64_t puts_before = store_->stats().puts;
  auto results = combiner.PublishCombined(specs);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].status().IsConflict());
  EXPECT_EQ(combiner.stats().fallbacks, 1u);

  // Alice's batch shrank to a sole survivor whose expectation matched the
  // head: no wrapper commit, the head IS her content commit, and the only
  // store offer of the whole publish is that one commit object. Bob's
  // combined attempt and his individual retry both wrote nothing.
  EXPECT_EQ(results[0]->merge_commits, 0);
  EXPECT_EQ(*mgr_->Head("main"), results[0]->commit);
  EXPECT_EQ(store_->stats().puts - puts_before, 1u);

  auto head = mgr_->ReadCommit(*mgr_->Head("main"));
  ASSERT_TRUE(head.ok());
  auto got = index_->Get(head->root, "shared", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "alice's");
}

// With a resolver in the combiner's merge options, the same divergent
// batch resolves inside the combined merge — both members land in one
// publish.
TEST_F(GroupCommitTest, ResolverResolvesInBatchConflictInsideCombine) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  GroupCommitOptions opts;
  opts.merge.resolver = [](const std::string&,
                           const std::optional<std::string>& ours,
                           const std::optional<std::string>&) { return ours; };
  CommitCombiner combiner(mgr_.get(), opts);
  std::vector<PublishSpec> specs = {
      Spec("main", Put(base_root_, {{"shared", "alice's"}}), "alice", *c0),
      Spec("main", Put(base_root_, {{"shared", "bob's"}}), "bob", *c0),
  };
  auto results = combiner.PublishCombined(specs);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(results[0]->head, results[1]->head);
  EXPECT_EQ(combiner.stats().fallbacks, 0u);
  auto head = mgr_->ReadCommit(results[0]->head);
  ASSERT_TRUE(head.ok());
  auto got = index_->Get(head->root, "shared", nullptr);
  ASSERT_TRUE(got.ok());
  // The combine keeps CommitWithMerge's orientation: the member being
  // folded is "ours". Bob is the member merged against alice's
  // already-folded value, so the ours-wins resolver keeps bob's — the
  // same answer bob would get losing an individual head race to alice.
  EXPECT_EQ(**got, "bob's");
}

// A member whose expectation is stale relative to the batch head (it
// built before an earlier commit landed) is folded in via its merge base,
// exactly like an individual merge retry would.
TEST_F(GroupCommitTest, StaleMemberFoldsInViaMergeBase) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());
  // Bob builds against c0...
  const Hash root_b = Put(base_root_, Keys("b", 3));
  // ...then Alice lands first, individually.
  const Hash root_a = Put(base_root_, Keys("a", 3));
  CasResult a = mgr_->CommitOnBranchIf("main", *c0, root_a, "alice", "A");
  ASSERT_TRUE(a.ok());

  CommitCombiner combiner(mgr_.get());
  // Carol builds on the new head; Bob's expectation is stale.
  const Hash root_c = Put(root_a, Keys("c", 3));
  std::vector<PublishSpec> specs = {
      Spec("main", root_c, "carol", a.commit),
      Spec("main", root_b, "bob", *c0),
  };
  auto results = combiner.PublishCombined(specs);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(results[0]->head, results[1]->head);

  auto combined = mgr_->ReadCommit(results[0]->head);
  ASSERT_TRUE(combined.ok());
  auto content = Dump(*index_, combined->root);
  for (const char* who : {"a", "b", "c"}) {
    for (const KV& kv : Keys(who, 3)) EXPECT_EQ(content.at(kv.key), kv.value);
  }
  // Bob's content commit still claims his true parent, c0.
  auto bob = mgr_->ReadCommit(results[1]->commit);
  ASSERT_TRUE(bob.ok());
  ASSERT_EQ(bob->parents.size(), 1u);
  EXPECT_EQ(bob->parents[0], *c0);
  // Bob lost one race (to alice), as he would publishing alone; carol
  // lost none.
  EXPECT_EQ(results[0]->cas_failures, 0);
  EXPECT_EQ(results[1]->cas_failures, 1);
}

// A batch on a branch whose head is gone fails every member that expected
// a head with NotFound, exactly as a lone publish does — it must not
// bring the branch back as a merge commit with no head parent.
TEST_F(GroupCommitTest, BatchedPublishToDeletedBranchFailsNotFound) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());
  ASSERT_TRUE(mgr_->DeleteBranch("main").ok());

  CommitCombiner combiner(mgr_.get());
  auto solo = combiner.PublishCombined(
      {Spec("main", Put(base_root_, Keys("s", 2)), "solo", *c0)});
  ASSERT_FALSE(solo[0].ok());
  EXPECT_TRUE(solo[0].status().IsNotFound()) << solo[0].status().ToString();

  auto results = combiner.PublishCombined({
      Spec("main", Put(base_root_, Keys("a", 2)), "alice", *c0),
      Spec("main", Put(base_root_, Keys("b", 2)), "bob", *c0),
  });
  ASSERT_EQ(results.size(), 2u);
  for (auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
    EXPECT_EQ(r.status().ToString(), solo[0].status().ToString());
  }
  EXPECT_TRUE(mgr_->Head("main").status().IsNotFound());
  const auto s = combiner.stats();
  EXPECT_EQ(s.solo_commits + s.combined_commits + s.fallbacks, 0u);
}

// A lost-ack replay arriving in a LATER batch: its expectation is stale
// because the original already landed, and the identical content commit
// is reachable from the head — the combiner acks the original landing
// without executing. solo+combined+fallbacks counts the two real
// executions only, exactly-once accounting under replays.
TEST_F(GroupCommitTest, StaleReplayInLaterBatchDeduplicatesWithoutCounting) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  CommitCombiner combiner(mgr_.get());
  const PublishSpec original =
      Spec("main", Put(base_root_, Keys("a", 4)), "a", *c0);
  auto first = combiner.Publish(original);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->already_applied);

  // The ack was lost in flight; the client replays the identical publish,
  // and a fresh committer happens to share its batch.
  const PublishSpec fresh =
      Spec("main", Put(base_root_, Keys("b", 4)), "b", first->head);
  auto results = combiner.PublishCombined({original, fresh});
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  EXPECT_TRUE(results[0]->already_applied);
  EXPECT_EQ(results[0]->commit, first->commit);
  EXPECT_FALSE(results[1]->already_applied);

  const auto s = combiner.stats();
  EXPECT_EQ(s.solo_commits + s.combined_commits + s.fallbacks, 2u);
  // History holds exactly a's commit once: the fresh member shrank to a
  // sole survivor, so the head is b's content commit on top of it.
  EXPECT_EQ(mgr_->branch_stats("main").commits, 3u);  // c0, a, b
}

// The replay can even share the SAME batch as its original (the original
// was still queued when the replay arrived). The batch stages the content
// commit once — no duplicate parent in the combined commit — and both
// requests ack the same landing, with only real executions counted.
TEST_F(GroupCommitTest, TwinReplayInSameBatchAcksOriginalsLandingOnce) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  CommitCombiner combiner(mgr_.get());
  const PublishSpec pub = Spec("main", Put(base_root_, Keys("a", 4)), "a", *c0);
  const PublishSpec fresh =
      Spec("main", Put(base_root_, Keys("b", 4)), "b", *c0);
  auto results = combiner.PublishCombined({pub, pub, fresh});
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_FALSE(results[0]->already_applied);
  EXPECT_TRUE(results[1]->already_applied);
  EXPECT_EQ(results[1]->commit, results[0]->commit);
  EXPECT_EQ(results[1]->head, results[0]->head);

  // Combined parents: [c0, content_a, content_b] — a's content exactly
  // once despite two requests carrying it.
  auto combined = mgr_->ReadCommit(results[0]->head);
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ(combined->parents.size(), 3u);
  EXPECT_EQ(combined->parents[0], *c0);

  const auto s = combiner.stats();
  EXPECT_EQ(s.solo_commits + s.combined_commits + s.fallbacks, 2u);

  auto content = Dump(*index_, combined->root);
  for (const char* who : {"a", "b"}) {
    for (const KV& kv : Keys(who, 4)) EXPECT_EQ(content.at(kv.key), kv.value);
  }
}

// A solo committer through the threaded Publish path never pays the
// publish window: with a multi-second window configured, a lone publish
// returns in a fraction of it.
TEST_F(GroupCommitTest, SoloCommitterPaysNoPublishWindowWait) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  GroupCommitOptions opts;
  opts.window_micros = 2000000;  // 2s: a paid window would be unmissable
  CommitCombiner combiner(mgr_.get(), opts);

  Timer timer;
  auto r = combiner.Publish(Spec("main", Put(base_root_, Keys("solo", 4)),
                                 "solo", *c0));
  const double secs = timer.ElapsedSeconds();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->merge_commits, 0);  // plain fast-path commit, no wrapper
  EXPECT_LT(secs, 1.0);
  EXPECT_EQ(combiner.stats().solo_commits, 1u);
  EXPECT_EQ(*mgr_->Head("main"), r->commit);
}

// Shutdown drains cleanly: concurrent publishers all complete (no hang,
// nothing lost), and publishes after shutdown still work — uncombined,
// straight through CommitWithMerge.
TEST_F(GroupCommitTest, ShutdownDrainsQueueAndKeepsCommitting) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  GroupCommitOptions opts;
  opts.window_micros = 500;
  opts.merge.max_retries = std::numeric_limits<int>::max();
  CommitCombiner combiner(mgr_.get(), opts);

  constexpr int kThreads = 4;
  constexpr int kCommits = 3;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int c = 0; c < kCommits; ++c) {
        auto head = mgr_->Head("main");
        ASSERT_TRUE(head.ok());
        auto head_commit = mgr_->ReadCommit(*head);
        ASSERT_TRUE(head_commit.ok());
        auto root = index_->PutBatch(
            head_commit->root,
            Keys("w" + std::to_string(t) + "c" + std::to_string(c), 2));
        ASSERT_TRUE(root.ok());
        auto r = combiner.Publish(
            Spec("main", *root, "w" + std::to_string(t), *head));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Shut down while publishers are mid-flight: Shutdown must wait for the
  // lanes to drain, never strand a waiter.
  combiner.Shutdown();
  for (auto& w : workers) w.join();

  // Every committed key is at the final head.
  auto head = mgr_->ReadCommit(*mgr_->Head("main"));
  ASSERT_TRUE(head.ok());
  auto content = Dump(*index_, head->root);
  for (int t = 0; t < kThreads; ++t) {
    for (int c = 0; c < kCommits; ++c) {
      for (const KV& kv :
           Keys("w" + std::to_string(t) + "c" + std::to_string(c), 2)) {
        EXPECT_EQ(content.at(kv.key), kv.value) << "lost " << kv.key;
      }
    }
  }

  // Post-shutdown publishes run inline and still land.
  auto after = combiner.Publish(Spec(
      "main", Put(head->root, Keys("after", 2)), "late", *mgr_->Head("main")));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*mgr_->Head("main"), after->head);
}

// --- Publish-cost accounting (file store: fsyncs) --------------------------

TEST(GroupCommitAccountingTest, CombinedBatchCostsExactlyOneFsync) {
  const std::string path =
      ::testing::TempDir() + "group_commit_fsync.sirilog";
  std::remove(path.c_str());
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path, &store).ok());
  PosTree index(store);
  BranchManager mgr(store);

  const Hash base_root = *index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  auto c0 = mgr.CommitOnBranch("main", base_root, "init", "base");
  ASSERT_TRUE(c0.ok());

  CommitCombiner combiner(&mgr);
  std::vector<PublishSpec> specs;
  for (const char* who : {"a", "b", "c", "d"}) {
    PublishSpec s;
    s.index = &index;
    s.branch = "main";
    s.new_root = *index.PutBatch(
        base_root, {{std::string(who) + "/key", std::string("v") + who}});
    s.author = who;
    s.message = who;
    s.expected_head = *c0;
    specs.push_back(std::move(s));
  }

  // Four combined commits: ONE staged flush, hence exactly ONE fsync.
  const uint64_t fsyncs_before = store->fsync_count();
  auto results = combiner.PublishCombined(specs);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(store->fsync_count(), fsyncs_before + 1);
  const BranchStats stats = mgr.branch_stats("main");
  EXPECT_EQ(stats.combined_commits, 4u);

  std::remove(path.c_str());
}

// --- Publish-cost accounting (client store: upload RPCs) -------------------

TEST(GroupCommitAccountingTest, CombinedBatchCostsExactlyOneUploadRpc) {
  auto server_store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(server_store);
  PosTree server_index(server_store);
  const Hash base_root =
      *server_index.PutBatch(server_index.EmptyRoot(), MakeKvs(10));
  BranchManager* mgr = servlet.branches();
  auto c0 = mgr->CommitOnBranch("main", base_root, "init", "base");
  ASSERT_TRUE(c0.ok());

  auto client_store =
      std::make_shared<ForkbaseClientStore>(&servlet, 1 << 20, 0);
  auto client_index = server_index.WithStore(client_store);

  std::vector<PublishSpec> specs;
  for (const char* who : {"a", "b", "c"}) {
    PublishSpec s;
    s.index = client_index.get();
    s.branch = "main";
    s.new_root = *client_index->PutBatch(
        base_root, {{std::string(who) + "/key", std::string("v") + who}});
    s.author = who;
    s.message = who;
    s.expected_head = *c0;
    specs.push_back(std::move(s));
  }

  // Three combined commits through the client boundary: the whole staged
  // publish — merged pages, three content commits, the combined commit —
  // ships in exactly ONE PutMany upload RPC.
  const uint64_t puts_before = client_store->remote_stats().remote_puts;
  auto results = servlet.combiner()->PublishCombined(specs);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(client_store->remote_stats().remote_puts, puts_before + 1);

  // And everything is readable server-side.
  auto head = mgr->ReadCommit(results[0]->head);
  ASSERT_TRUE(head.ok());
  for (const char* who : {"a", "b", "c"}) {
    auto got = server_index.Get(head->root, std::string(who) + "/key", nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
  }
}

// --- Scheduler-driven races through the real Publish lanes -----------------

/// Workload multiplier: 1 by default, larger under SIRI_STRESS=1 (the
/// `stress`-labeled CTest rerun the TSan job executes).
int StressFactor() {
  const char* e = std::getenv("SIRI_STRESS");
  return (e != nullptr && e[0] == '1') ? 6 : 1;
}

TEST(GroupCommitStressTest, WritersRaceOneBranchThroughCombiner) {
  const int kThreads = 4;
  const int commits = 4 * StressFactor();
  auto store = NewInMemoryNodeStore();
  PosTree index(store);
  BranchManager mgr(store);
  const Hash base = *index.PutBatch(index.EmptyRoot(), MakeKvs(100));
  ASSERT_TRUE(mgr.CommitOnBranch("main", base, "init", "base").ok());

  GroupCommitOptions opts;
  opts.window_micros = 200;
  opts.merge.max_retries = std::numeric_limits<int>::max();
  CommitCombiner combiner(&mgr, opts);

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int c = 0; c < commits; ++c) {
        auto head = mgr.Head("main");
        ASSERT_TRUE(head.ok());
        auto head_commit = mgr.ReadCommit(*head);
        ASSERT_TRUE(head_commit.ok());
        std::vector<KV> batch;
        for (int k = 0; k < 3; ++k) {
          batch.push_back(KV{"w" + std::to_string(t) + "/c" +
                                 std::to_string(c) + "/k" + std::to_string(k),
                             "v"});
        }
        auto root = index.PutBatch(head_commit->root, std::move(batch));
        ASSERT_TRUE(root.ok());
        // Hand the core away inside the widest race window so commits
        // pile into the combiner even on a single-core host.
        std::this_thread::yield();
        PublishSpec spec;
        spec.index = &index;
        spec.branch = "main";
        spec.new_root = *root;
        spec.author = "w" + std::to_string(t);
        spec.message = "c" + std::to_string(c);
        spec.expected_head = *head;
        auto r = combiner.Publish(spec);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  // Zero lost updates: every writer's every key at the final head.
  auto head_commit = mgr.ReadCommit(*mgr.Head("main"));
  ASSERT_TRUE(head_commit.ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int c = 0; c < commits; ++c) {
      for (int k = 0; k < 3; ++k) {
        const std::string key = "w" + std::to_string(t) + "/c" +
                                std::to_string(c) + "/k" + std::to_string(k);
        auto got = index.Get(head_commit->root, key, nullptr);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->has_value()) << "lost update: " << key;
      }
    }
  }

  // Every content commit is reachable from the head, exactly once, and
  // sequences increase strictly along the first-parent chain.
  auto log = mgr.Log(*mgr.Head("main"), std::numeric_limits<size_t>::max());
  ASSERT_TRUE(log.ok());
  uint64_t content_commits = 0;
  for (const auto& [h, c] : *log) {
    // Content commits carry a writer author and a linear (≤ 1 parent)
    // lineage; two-parent merge commits from individual retries share the
    // writer's author but are wrappers, not content.
    if (c.author.rfind("w", 0) == 0 && c.parents.size() <= 1) {
      ++content_commits;
    }
  }
  EXPECT_EQ(content_commits, static_cast<uint64_t>(kThreads) * commits);
  Hash cursor = *mgr.Head("main");
  for (;;) {
    auto c = mgr.ReadCommit(cursor);
    ASSERT_TRUE(c.ok());
    if (c->parents.empty()) break;
    auto parent = mgr.ReadCommit(c->parents[0]);
    ASSERT_TRUE(parent.ok());
    EXPECT_LT(parent->sequence, c->sequence);
    cursor = c->parents[0];
  }
  // The combiner must have been exercised (batches may degenerate to
  // solos under an adversarial scheduler, but publishes always happen).
  EXPECT_GT(combiner.stats().publishes + combiner.stats().solo_commits, 0u);
}

}  // namespace
}  // namespace siri
