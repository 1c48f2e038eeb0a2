// Copyright (c) 2026 The siri Authors. MIT license.
//
// Optimistic concurrent branch commits (the paper's §2.1/§5.6 collaboration
// story made multi-writer). PublishBatch is the one publish algorithm over
// BranchManager's head-CAS primitives; it lands N ≥ 1 committers' new
// roots on one branch:
//
//   1. fold every member's delta onto the head — Merge3(acc, member, base)
//      against the merge base of what the member built on — staging the
//      merged pages and the members' content commits;
//   2. CAS the head to the result: a lone member whose expectation was
//      fresh lands its content commit itself; otherwise a merge commit
//      whose parents are [head, content_1 … content_N] lands;
//   3. on a typed Conflict every member has lost a race: re-fold onto the
//      head that won, with bounded backoff.
//
// CommitWithMerge is the batch of one; the group-commit combiner
// (version/group_commit.h) gathers concurrent committers into larger
// batches. Every attempt stages its nodes in a StagingNodeStore over the
// index's store, so an attempt that loses the CAS is dropped wholesale:
// zero store writes, zero upload RPCs, zero fsyncs. Only the attempt that
// wins the head race pays one PutMany and one Flush.

#ifndef SIRI_VERSION_OCC_H_
#define SIRI_VERSION_OCC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/index.h"
#include "version/commit.h"

namespace siri {

/// Most committers one publish lands: its merge commit's parents are
/// [head] + one content commit per member, and commit objects decode at
/// most 16 parents.
inline constexpr size_t kMaxBatch = 15;

/// \brief Tuning and hooks for a publish.
struct MergeCommitOptions {
  /// Races a member may lose (each followed by a re-merge) before it
  /// gives up with Conflict.
  int max_retries = 8;
  /// Exponential backoff before each merge retry after the first: retry
  /// k ≥ 1 sleeps min(backoff_init_micros << (k-1), backoff_max_micros);
  /// 0 disables.
  uint64_t backoff_init_micros = 50;
  uint64_t backoff_max_micros = 5000;
  /// Resolves keys changed divergently on both sides during Merge3; the
  /// member being folded in is "ours". With none, such a publish fails
  /// with Status::Conflict (the paper's "a selection strategy must be
  /// given").
  ConflictResolver resolver;
  /// Test/observability hook, called for each race a member loses, with
  /// the retry ordinal (0-based) and the head that won. Tests use it to
  /// drive deterministic interleavings (e.g. landing another commit to
  /// force a second retry).
  std::function<void(int retry, const Hash& winner)> on_retry;
};

/// \brief What a publish did for one committer.
struct MergeCommitResult {
  Hash head;              ///< branch head after the call
  Hash commit;            ///< the author's content commit (== head when it
                          ///< landed without a merge commit; a merge
                          ///< parent otherwise)
  int cas_failures = 0;   ///< head races lost along the way
  int merge_commits = 0;  ///< merge commits written (0 = clean commit)
  /// The nodes this publish landed (merged index pages + commit objects),
  /// captured when a merge commit landed — a clean fast-path commit wrote
  /// nothing the author does not already hold, so it stays null. The
  /// server's publish ack ships this back to the client (the
  /// combiner-aware cache push): it is exactly the node set a losing
  /// committer re-reads next round.
  std::shared_ptr<const NodeBatch> staged;
  /// True when the publish's deterministic content commit was ALREADY in
  /// the branch history — this call executed nothing and wrote nothing;
  /// `head`/`commit` just point at the earlier landing. That happens when
  /// a lost-ack publish is replayed after the original execution landed:
  /// the socket transport replays every failed attempt, Publish included,
  /// and relies on this dedup for exactly-once.
  /// Callers keeping executed-commit accounting must not count these.
  bool already_applied = false;
};

/// \brief One committer's publish: \p new_root, built on top of
/// \p expected_head's root, for \p branch.
///
/// \c index must be bound to the store the new root's nodes live in; all
/// members of one batch must name the same branch and publish through
/// indexes of the same structure over the same store (the batch merges
/// through the first member's index).
struct PublishSpec {
  ImmutableIndex* index = nullptr;
  std::string branch;
  Hash new_root;
  std::string author;
  std::string message;
  std::optional<Hash> expected_head;  ///< head the committer built on
                                      ///< (nullopt: creating the branch)
};

/// One member's outcome of PublishBatch: its result, or nullopt when its
/// delta conflicted inside a batch of ≥ 2 — possibly with another
/// member's — and it must publish again alone.
using PublishOutcome = std::optional<Result<MergeCommitResult>>;

/// Lands \p specs (1 ≤ size ≤ kMaxBatch, one branch) with one head swing,
/// auto-merging past concurrent winners. Outcomes are index-aligned with
/// \p specs.
///
/// First-committer-wins: a commit that lands first keeps its root
/// untouched. A member loses a race whenever the head it is merged onto
/// is not the head it last saw (at first, the one it built on); each
/// lost race counts in its cas_failures, fires opts.on_retry and
/// BranchManager::RecordMergeRetry, and checks whether the member's
/// deterministic content commit already landed (a lost-ack replay: acked
/// as already_applied, executed never).
/// Merge attempts stage through the first member's index, so with a
/// client-side store the whole publish ships as one upload RPC.
///
/// A lone member with a fresh expectation lands its content commit as the
/// head; a stale lone member lands the two-parent merge commit [winner,
/// content] under its own author with message "merge: " + message; two or
/// more members land one "group-commit" merge commit. A member fails with
/// Conflict when its retries are exhausted or — alone — when a key
/// conflict has no resolver; NotFound when it expected a head but the
/// branch is gone.
std::vector<PublishOutcome> PublishBatch(
    BranchManager* mgr, const std::vector<const PublishSpec*>& specs,
    const MergeCommitOptions& opts = {});

/// Commits \p new_root — built on top of \p expected_head's root — to
/// \p branch: PublishBatch with a batch of one.
Result<MergeCommitResult> CommitWithMerge(
    BranchManager* mgr, ImmutableIndex* index, const std::string& branch,
    const Hash& new_root, const std::string& author,
    const std::string& message, const std::optional<Hash>& expected_head,
    const MergeCommitOptions& opts = {});

}  // namespace siri

#endif  // SIRI_VERSION_OCC_H_
