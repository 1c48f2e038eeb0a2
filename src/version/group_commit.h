// Copyright (c) 2026 The siri Authors. MIT license.
//
// Group-commit publish pipeline: a combining commit queue per branch.
//
// Committers publishing one at a time land at most one commit per (merge
// CPU + flush) on one hot branch, because the winner's flush sits inside
// the OCC race window and every loser pays a full Merge3 retry. The
// combiner lifts that ceiling by *batching the publish*: when K committers
// race one branch, one of them (the leader) hands all K to PublishBatch
// (version/occ.h), which folds their deltas onto the head and lands one
// content commit per committer plus one merge commit whose parents are
// [prior head, content_1 … content_K] with ONE PutMany, ONE flush (= one
// fsync / one upload RPC), and ONE head swing. Throughput then scales
// with the batch size instead of serializing per winner.
//
// Batching discipline:
//   - A solo committer never waits: with nobody else queued, the leader
//     publishes a batch of one immediately — exactly CommitWithMerge.
//   - With company, the leader waits a short publish window
//     (GroupCommitOptions::window_micros) for stragglers, then publishes
//     up to kMaxBatch members. Committers arriving while a publish is in
//     flight queue up and form the next batch — the in-flight publish is
//     itself a natural window.
//   - A member whose delta conflicts inside its batch publishes again
//     alone, as a batch of one on its own thread; its partial merge
//     output was staged in a nested batch that is discarded, so a failed
//     member writes zero pages.
//
// The combiner has no threads of its own — leaders are committer threads —
// so construction is free and shutdown only means draining waiters.

#ifndef SIRI_VERSION_GROUP_COMMIT_H_
#define SIRI_VERSION_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "index/index.h"
#include "version/commit.h"
#include "version/occ.h"

namespace siri {

/// \brief Tuning for the combining commit queue.
struct GroupCommitOptions {
  /// How long a leader that has company waits for stragglers before
  /// publishing, in microseconds. A solo committer never waits. 0 turns
  /// the window off (in-flight publishes still batch arrivals).
  uint64_t window_micros = 200;
  /// The publish's merge options: resolver for divergent keys, retry
  /// budget and backoff, retry hook.
  MergeCommitOptions merge;
};

/// \brief Per-branch combining commit queue over a BranchManager.
///
/// Thread-safe. Different branches publish in parallel (one lane each);
/// within a lane one leader at a time runs the combine.
class CommitCombiner {
 public:
  /// Counters of commits actually EXECUTED: a lost-ack replay that found
  /// its original already landed (MergeCommitResult::already_applied)
  /// counts in none of them, so solo + combined + fallbacks equals the
  /// number of distinct commits applied — the server side of the
  /// exactly-once publish contract.
  struct Stats {
    uint64_t publishes = 0;         ///< leader batches that landed (one
                                    ///< head swing each)
    uint64_t combined_commits = 0;  ///< commits landed in batches of ≥ 2
    uint64_t solo_commits = 0;      ///< commits landed by batches of one
    uint64_t fallbacks = 0;         ///< members that fell out of their
                                    ///< batch and published again alone
    uint64_t max_batch_seen = 0;    ///< largest batch landed so far
  };

  explicit CommitCombiner(BranchManager* mgr, GroupCommitOptions opts = {});
  ~CommitCombiner();

  CommitCombiner(const CommitCombiner&) = delete;
  CommitCombiner& operator=(const CommitCombiner&) = delete;

  /// Publishes one commit, combining with concurrent committers of the
  /// same branch when possible. Blocks until the commit landed (result's
  /// `head` is the branch head containing it) or failed for this committer
  /// (e.g. Conflict with no resolver). Semantically equivalent to
  /// CommitWithMerge — only the batching differs.
  Result<MergeCommitResult> Publish(const PublishSpec& spec) EXCLUDES(mu_);

  /// Deterministic single-threaded combine of \p specs — exactly what a
  /// leader does with a gathered batch, including the lone republish of
  /// members that conflicted inside it. More than kMaxBatch specs publish
  /// as a chain of maximal batches. All specs must name the same branch.
  /// Test and inspection entry; results are index-aligned with \p specs.
  std::vector<Result<MergeCommitResult>> PublishCombined(
      const std::vector<PublishSpec>& specs);

  /// Drains the queue: blocks until every enqueued request has completed,
  /// then publishes future Publish calls as uncombined batches of one on
  /// the caller's thread. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  Stats stats() const;
  const GroupCommitOptions& options() const { return opts_; }
  BranchManager* manager() const { return mgr_; }

 private:
  struct Request {
    const PublishSpec* spec = nullptr;
    bool done = false;
    /// Unset once done when the member fell out of its batch.
    PublishOutcome result;
  };

  struct Lane {
    std::deque<Request*> queue;
    bool leader_active = false;
    /// Threads currently inside Publish for this lane (queued, leading,
    /// or about to exit). The last one out erases the lane, so the map
    /// does not grow forever with short-lived branch names.
    int users = 0;
    std::condition_variable cv;
  };

  /// PublishBatch over \p specs, counted in the leader stats.
  std::vector<PublishOutcome> RunBatch(
      const std::vector<const PublishSpec*>& specs) EXCLUDES(mu_);

  /// Publishes a member that fell out of its batch again, alone.
  Result<MergeCommitResult> RunFallback(const PublishSpec& spec)
      EXCLUDES(mu_);

  /// True when no lane has queued or in-flight work.
  bool IdleLocked() const REQUIRES(mu_);

  BranchManager* mgr_;
  const GroupCommitOptions opts_;

  mutable Mutex mu_;
  // node-based map: Lanes stay pinned while threads wait on their cv.
  std::unordered_map<std::string, Lane> lanes_ GUARDED_BY(mu_);
  std::condition_variable drain_cv_;
  bool shutdown_ GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> combined_commits_{0};
  std::atomic<uint64_t> solo_commits_{0};
  std::atomic<uint64_t> fallbacks_{0};
  std::atomic<uint64_t> max_batch_seen_{0};
};

}  // namespace siri

#endif  // SIRI_VERSION_GROUP_COMMIT_H_
