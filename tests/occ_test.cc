// Copyright (c) 2026 The siri Authors. MIT license.
//
// Optimistic concurrent branch commits: the head-CAS primitives of
// BranchManager and the CommitWithMerge retry driver (version/occ.h),
// exercised with hand-controlled interleavings — the race outcomes here
// are deterministic, not scheduler luck (the scheduler-driven companion
// lives in tests/concurrency_test.cc). Includes the conflict-path cost
// accounting: a losing CAS attempt writes nothing, flushes nothing, and
// ships nothing; the winning retry pays exactly one batch and one fsync.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "index/pos/pos_tree.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "tests/test_util.h"
#include "version/commit.h"
#include "version/occ.h"

namespace siri {
namespace {

using testing_util::Dump;
using testing_util::MakeKvs;
using testing_util::TKey;

class OccTest : public ::testing::Test {
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

  std::shared_ptr<InMemoryNodeStore> store_;
  std::unique_ptr<PosTree> index_;
  std::unique_ptr<BranchManager> mgr_;
  Hash base_root_;
};

TEST_F(OccTest, CompareAndSwapHeadCreatesMovesAndConflicts) {
  const Hash c1 = *mgr_->WriteCommit(Commit{base_root_, {}, "a", "1", 0});
  const Hash c2 = *mgr_->WriteCommit(Commit{base_root_, {c1}, "a", "2", 1});

  // Creation CAS: expected == nullopt means "must not exist yet".
  CasResult r = mgr_->CompareAndSwapHead("main", std::nullopt, c1);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.commit, c1);
  EXPECT_EQ(*mgr_->Head("main"), c1);

  // Creation CAS against an existing branch is a typed conflict.
  r = mgr_->CompareAndSwapHead("main", std::nullopt, c2);
  ASSERT_TRUE(r.status.IsConflict());
  ASSERT_TRUE(r.conflict.has_value());
  EXPECT_EQ(r.conflict->actual_head, c1);

  // Plain move.
  r = mgr_->CompareAndSwapHead("main", c1, c2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*mgr_->Head("main"), c2);

  // Stale expectation: typed conflict carrying the head that won.
  r = mgr_->CompareAndSwapHead("main", c1, c2);
  ASSERT_TRUE(r.status.IsConflict());
  EXPECT_EQ(r.conflict->actual_head, c2);

  // Missing branch with an expectation is NotFound, not a conflict.
  r = mgr_->CompareAndSwapHead("ghost", c1, c2);
  EXPECT_TRUE(r.status.IsNotFound());

  const BranchStats stats = mgr_->branch_stats("main");
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.cas_failures, 2u);
  EXPECT_EQ(stats.merge_retries, 0u);
}

TEST_F(OccTest, CommitOnBranchIfFailsFastOnStaleHead) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  const Hash root_a = Put(base_root_, Keys("a", 5));
  CasResult a = mgr_->CommitOnBranchIf("main", *c0, root_a, "alice", "A");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*mgr_->Head("main"), a.commit);

  // B still expects c0: typed conflict naming A's commit, and — fail-fast
  // path — not a single node written to the store.
  const Hash root_b = Put(base_root_, Keys("b", 5));
  const uint64_t puts_before = store_->stats().puts;
  CasResult b = mgr_->CommitOnBranchIf("main", *c0, root_b, "bob", "B");
  ASSERT_TRUE(b.status.IsConflict());
  EXPECT_EQ(b.conflict->actual_head, a.commit);
  EXPECT_EQ(store_->stats().puts, puts_before);
  EXPECT_EQ(*mgr_->Head("main"), a.commit);  // head untouched
}

// The ISSUE's deterministic interleaving: commit A lands between B's read
// of the head and B's CAS. First-committer-wins; B's retry produces a
// two-parent merge commit whose merge base is the old head; no author's
// keys are lost.
TEST_F(OccTest, DeterministicConflictFirstCommitterWinsLoserMerges) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());

  // B reads the head (c0) and builds its root on top of it...
  const Hash root_b = Put(base_root_, Keys("b", 5));

  // ...then A lands first.
  const Hash root_a = Put(base_root_, Keys("a", 5));
  CasResult a = mgr_->CommitOnBranchIf("main", *c0, root_a, "alice", "A");
  ASSERT_TRUE(a.ok());

  // B's CAS is now stale; the driver must merge and retry.
  auto res = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b, "bob",
                             "B", *c0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->cas_failures, 1);
  EXPECT_EQ(res->merge_commits, 1);
  EXPECT_EQ(*mgr_->Head("main"), res->head);

  // The landed head is a two-parent merge: first parent the winner (the
  // branch's first-parent chain stays the commit order), second parent
  // B's content commit.
  auto merge = mgr_->ReadCommit(res->head);
  ASSERT_TRUE(merge.ok());
  ASSERT_EQ(merge->parents.size(), 2u);
  EXPECT_EQ(merge->parents[0], a.commit);
  EXPECT_EQ(merge->parents[1], res->commit);
  EXPECT_EQ(merge->sequence, 2u);

  // B's content commit is intact history: parent c0, root_b untouched.
  auto ours = mgr_->ReadCommit(res->commit);
  ASSERT_TRUE(ours.ok());
  ASSERT_EQ(ours->parents.size(), 1u);
  EXPECT_EQ(ours->parents[0], *c0);
  EXPECT_EQ(ours->root, root_b);

  // The merge base of the two sides is exactly the old head.
  auto mb = mgr_->MergeBase(a.commit, res->commit);
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(*mb, *c0);

  // Both authors' keys (and the base) are present in the final root.
  auto content = Dump(*index_, merge->root);
  for (const KV& kv : Keys("a", 5)) EXPECT_EQ(content.at(kv.key), kv.value);
  for (const KV& kv : Keys("b", 5)) EXPECT_EQ(content.at(kv.key), kv.value);
  for (const KV& kv : MakeKvs(10)) EXPECT_EQ(content.at(kv.key), kv.value);

  const BranchStats stats = mgr_->branch_stats("main");
  EXPECT_EQ(stats.commits, 3u);  // c0, A, merge
  EXPECT_EQ(stats.cas_failures, 1u);
  EXPECT_EQ(stats.merge_retries, 1u);
}

// A second winner lands while B is busy computing its first merge: the
// attempt is dropped (staged nodes never reach the store) and the next
// retry merges against the newest head.
TEST_F(OccTest, SecondRaceDuringMergeRetryIsAlsoAbsorbed) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());
  const Hash root_b = Put(base_root_, Keys("b", 4));
  const Hash root_a = Put(base_root_, Keys("a", 4));
  CasResult a = mgr_->CommitOnBranchIf("main", *c0, root_a, "alice", "A");
  ASSERT_TRUE(a.ok());

  MergeCommitOptions opts;
  Hash second_winner;
  opts.on_retry = [&](int retry, const Hash& winner) {
    if (retry != 0) return;
    EXPECT_EQ(winner, a.commit);
    // C lands on top of A (building on A's root, as a well-behaved writer
    // does) while B prepares its first merge attempt.
    const Hash root_c = Put(root_a, Keys("c", 4));
    CasResult c = mgr_->CommitOnBranchIf("main", a.commit, root_c, "carol",
                                         "C");
    ASSERT_TRUE(c.ok());
    second_winner = c.commit;
  };
  auto res = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b, "bob",
                             "B", *c0, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->cas_failures, 2);   // fast path + first merge attempt
  EXPECT_EQ(res->merge_commits, 1);  // only the landed merge exists

  auto merge = mgr_->ReadCommit(res->head);
  ASSERT_TRUE(merge.ok());
  ASSERT_EQ(merge->parents.size(), 2u);
  EXPECT_EQ(merge->parents[0], second_winner);

  auto content = Dump(*index_, merge->root);
  for (const char* p : {"a", "b", "c"}) {
    for (const KV& kv : Keys(p, 4)) EXPECT_EQ(content.at(kv.key), kv.value);
  }
}

TEST_F(OccTest, ExhaustedRetriesReturnConflictAndDroppedAttemptsWriteNothing) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());
  const Hash root_b = Put(base_root_, Keys("b", 4));
  const Hash root_a = Put(base_root_, Keys("a", 4));
  ASSERT_TRUE(mgr_->CommitOnBranchIf("main", *c0, root_a, "alice", "A").ok());

  MergeCommitOptions opts;
  opts.max_retries = 2;
  opts.backoff_init_micros = 0;
  int hook_commits = 0;
  opts.on_retry = [&](int, const Hash&) {
    // An adversary lands a commit before every one of B's merge attempts.
    // Re-using base_root_ keeps the hook's cost to exactly one commit
    // object, so the put delta below isolates B's dropped attempts.
    auto head = mgr_->Head("main");
    ASSERT_TRUE(head.ok());
    ASSERT_TRUE(
        mgr_->CommitOnBranchIf("main", *head, base_root_, "adv", "spoil").ok());
    ++hook_commits;
  };

  const uint64_t puts_before = store_->stats().puts;
  auto res = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b, "bob",
                             "B", *c0, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsConflict());
  EXPECT_EQ(hook_commits, 2);
  // Every dropped merge attempt staged its nodes and dropped them: the
  // only store writes are the adversary's two commit objects.
  EXPECT_EQ(store_->stats().puts - puts_before,
            static_cast<uint64_t>(hook_commits));
}

TEST_F(OccTest, DivergentKeyNeedsResolverThenMergesWithOne) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());
  const Hash root_b = Put(base_root_, {{"shared", "bob's"}});
  const Hash root_a = Put(base_root_, {{"shared", "alice's"}});
  CasResult a = mgr_->CommitOnBranchIf("main", *c0, root_a, "alice", "A");
  ASSERT_TRUE(a.ok());

  // Without a resolver the race on "shared" aborts with Conflict and the
  // branch stays at A.
  auto res = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b, "bob",
                             "B", *c0);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsConflict());
  EXPECT_EQ(*mgr_->Head("main"), a.commit);

  // With ours-wins resolution B's value lands in the merged root.
  MergeCommitOptions opts;
  opts.resolver = [](const std::string&, const std::optional<std::string>& o,
                     const std::optional<std::string>&) { return o; };
  res = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b, "bob", "B",
                        *c0, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto merge = mgr_->ReadCommit(res->head);
  ASSERT_TRUE(merge.ok());
  auto got = index_->Get(merge->root, "shared", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "bob's");
}

TEST_F(OccTest, RacingBranchCreationMergesFromEmptyBase) {
  // Both writers believe they are creating the branch.
  const Hash root_a = Put(index_->EmptyRoot(), Keys("a", 3));
  const Hash root_b = Put(index_->EmptyRoot(), Keys("b", 3));
  auto a = CommitWithMerge(mgr_.get(), index_.get(), "fresh", root_a, "alice",
                           "A", std::nullopt);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->merge_commits, 0);

  auto b = CommitWithMerge(mgr_.get(), index_.get(), "fresh", root_b, "bob",
                           "B", std::nullopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->merge_commits, 1);

  auto merge = mgr_->ReadCommit(b->head);
  ASSERT_TRUE(merge.ok());
  ASSERT_EQ(merge->parents.size(), 2u);
  EXPECT_EQ(merge->parents[0], a->head);
  auto ours = mgr_->ReadCommit(b->commit);
  ASSERT_TRUE(ours.ok());
  EXPECT_TRUE(ours->parents.empty());  // a creation commit has no parent

  auto content = Dump(*index_, merge->root);
  for (const char* p : {"a", "b"}) {
    for (const KV& kv : Keys(p, 3)) EXPECT_EQ(content.at(kv.key), kv.value);
  }
}

// A lost-ack replay: the identical (root, expected_head, author, message)
// arrives again after the original execution landed — the socket
// transport replays every publish whose ack it lost, so this dedup is
// what keeps those publishes exactly-once. The content commit is
// deterministic, so the retry driver finds it already reachable from the
// head and returns the original landing WITHOUT executing: no new
// commits, head untouched.
TEST_F(OccTest, ReplayOfLandedPublishDeduplicatesInsteadOfReExecuting) {
  auto c0 = mgr_->CommitOnBranch("main", base_root_, "init", "base");
  ASSERT_TRUE(c0.ok());
  const Hash root_b = Put(base_root_, Keys("b", 5));

  auto first = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b,
                               "bob", "B", *c0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->already_applied);
  const Hash head_after = *mgr_->Head("main");
  const uint64_t commits_before = mgr_->branch_stats("main").commits;

  auto replay = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b,
                                "bob", "B", *c0);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->already_applied);
  EXPECT_EQ(replay->commit, first->commit);
  EXPECT_EQ(replay->head, head_after);
  EXPECT_EQ(replay->merge_commits, 0);
  EXPECT_EQ(replay->staged, nullptr);
  EXPECT_EQ(*mgr_->Head("main"), head_after);
  EXPECT_EQ(mgr_->branch_stats("main").commits, commits_before);

  // Replays keep resolving after more history lands on top: the
  // sequence-pruned walk descends past the newer commits to the landing.
  auto more = CommitWithMerge(mgr_.get(), index_.get(), "main",
                              Put(base_root_, Keys("a", 3)), "alice", "A",
                              head_after);
  ASSERT_TRUE(more.ok());
  auto replay2 = CommitWithMerge(mgr_.get(), index_.get(), "main", root_b,
                                 "bob", "B", *c0);
  ASSERT_TRUE(replay2.ok()) << replay2.status().ToString();
  EXPECT_TRUE(replay2->already_applied);
  EXPECT_EQ(replay2->commit, first->commit);
  EXPECT_EQ(replay2->head, *mgr_->Head("main"));
}

// Same contract for a branch-creation publish (expected_head = nullopt):
// the replayed creation resolves to the landed creation commit instead of
// writing a gratuitous merge-from-empty.
TEST_F(OccTest, ReplayOfBranchCreationDeduplicates) {
  const Hash root = Put(index_->EmptyRoot(), Keys("c", 3));
  auto first = CommitWithMerge(mgr_.get(), index_.get(), "fresh", root,
                               "carol", "C", std::nullopt);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->already_applied);

  auto replay = CommitWithMerge(mgr_.get(), index_.get(), "fresh", root,
                                "carol", "C", std::nullopt);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->already_applied);
  EXPECT_EQ(replay->commit, first->commit);
  EXPECT_EQ(replay->head, first->head);
  EXPECT_EQ(*mgr_->Head("fresh"), first->head);
}

// --- Conflict-path cost accounting (file store: fsyncs) --------------------

TEST(OccAccountingTest, LosingCasZeroFsyncsWinningRetryExactlyOne) {
  const std::string path =
      ::testing::TempDir() + "occ_fsync_accounting.sirilog";
  std::remove(path.c_str());
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path, &store).ok());
  PosTree index(store);
  BranchManager mgr(store);

  const Hash base_root = *index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  auto c0 = mgr.CommitOnBranch("main", base_root, "init", "base");
  ASSERT_TRUE(c0.ok());

  const Hash root_b = *index.PutBatch(base_root, {{"b/key", "b"}});
  const Hash root_a = *index.PutBatch(base_root, {{"a/key", "a"}});
  ASSERT_TRUE(mgr.CommitOnBranchIf("main", *c0, root_a, "alice", "A").ok());

  // Losing CAS attempt: staged batch dropped, not flushed — zero fsyncs,
  // zero appended pages.
  const uint64_t fsyncs_before = store->fsync_count();
  const uint64_t puts_before = store->stats().puts;
  CasResult lost = mgr.CommitOnBranchIf("main", *c0, root_b, "bob", "B");
  ASSERT_TRUE(lost.status.IsConflict());
  EXPECT_EQ(store->fsync_count(), fsyncs_before);
  EXPECT_EQ(store->stats().puts, puts_before);

  // Winning merge retry: merged pages + both commit objects land as one
  // batched append, made durable by exactly one fsync.
  auto res =
      CommitWithMerge(&mgr, &index, "main", root_b, "bob", "B", *c0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->merge_commits, 1);
  EXPECT_EQ(store->fsync_count(), fsyncs_before + 1);

  std::remove(path.c_str());
}

// --- Conflict-path cost accounting (client store: upload RPCs) -------------

TEST(OccAccountingTest, LosingCasZeroUploadsWinningRetryExactlyOneRpc) {
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

  const Hash root_b = *client_index->PutBatch(base_root, {{"b/key", "b"}});
  const Hash root_a = *client_index->PutBatch(base_root, {{"a/key", "a"}});
  ASSERT_TRUE(
      mgr->CommitOnBranchIf("main", *c0, root_a, "alice", "A",
                            client_store.get())
          .ok());

  // Losing CAS attempt through the client: no upload RPC at all.
  const uint64_t puts_before = client_store->remote_stats().remote_puts;
  CasResult lost = mgr->CommitOnBranchIf("main", *c0, root_b, "bob", "B",
                                         client_store.get());
  ASSERT_TRUE(lost.status.IsConflict());
  EXPECT_EQ(client_store->remote_stats().remote_puts, puts_before);

  // Winning merge retry: the whole staged attempt — merged pages and both
  // commit objects — ships in exactly one PutMany upload RPC.
  auto res = CommitWithMerge(mgr, client_index.get(), "main", root_b, "bob",
                             "B", *c0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->merge_commits, 1);
  EXPECT_EQ(client_store->remote_stats().remote_puts, puts_before + 1);

  // And the merged result is readable server-side.
  auto merge = mgr->ReadCommit(res->head);
  ASSERT_TRUE(merge.ok());
  auto got = server_index.Get(merge->root, "b/key", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
}

}  // namespace
}  // namespace siri
