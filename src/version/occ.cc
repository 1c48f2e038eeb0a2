// Copyright (c) 2026 The siri Authors. MIT license.

#include "version/occ.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "crypto/sha256.h"
#include "store/node_store.h"
#include "store/staging_store.h"

namespace siri {

namespace {

// Backoff before the (ordinal+1)-th merge retry: min(backoff_init <<
// ordinal, backoff_max); 0 when backoff is disabled.
uint64_t MergeBackoffMicros(const MergeCommitOptions& opts, int ordinal) {
  if (opts.backoff_init_micros == 0) return 0;
  // Clamp the exponent: a handful of doublings saturates any sane
  // backoff_max, and an unclamped shift would be UB at large ordinals.
  const int doublings = std::min(std::max(ordinal, 0), 20);
  return std::min(opts.backoff_init_micros << doublings,
                  opts.backoff_max_micros);
}

// Root of the merge base between what a committer built on
// (expected_head; nullopt = built from the empty index) and actual_head,
// the commit it is merged onto. In the normal race the winner descends
// from expected_head, so the base IS the old head — IsAncestor confirms
// that in O(divergence) steps instead of MergeBase's O(history) ancestry
// collection; an administrative head reset (winner not a descendant)
// falls back to the full MergeBase walk.
Result<Hash> MergeBaseRoot(BranchManager* mgr, ImmutableIndex* index,
                           const std::optional<Hash>& expected_head,
                           const Hash& actual_head) {
  if (!expected_head) return index->EmptyRoot();
  Hash base_hash = *expected_head;
  auto fast_forward = mgr->IsAncestor(*expected_head, actual_head);
  if (!fast_forward.ok()) return fast_forward.status();
  if (!*fast_forward) {
    auto mb = mgr->MergeBase(*expected_head, actual_head);
    if (!mb.ok()) return mb.status();
    base_hash = *mb;
  }
  auto mb_commit = mgr->ReadCommit(base_hash);
  if (!mb_commit.ok()) return mb_commit.status();
  return mb_commit->root;
}

// Whether target — a content commit known to carry sequence
// target_sequence — is already reachable from head. Commit sequences
// strictly dominate every parent (version/commit.h), so the walk descends
// only through commits whose sequence exceeds the target's: O(commits
// landed since the target's parent), NOT O(history). This is the one
// exactly-once mechanism for publishes: a content commit is deterministic
// in (root, expected_head, author, message), so "is the replay's commit
// reachable from the head" decides applied-vs-absent race-free — the head
// CAS serializes every landing against this read.
Result<bool> CommitAlreadyApplied(BranchManager* mgr, const Hash& head,
                                  const Hash& target,
                                  uint64_t target_sequence) {
  PageSet seen;
  std::vector<Hash> stack = {head};
  while (!stack.empty()) {
    const Hash h = stack.back();
    stack.pop_back();
    if (h == target) return true;
    if (!seen.insert(h).second) continue;
    auto c = mgr->ReadCommit(h);
    if (!c.ok()) return c.status();
    // Sequences strictly dominate parents, so a commit at or below the
    // target's sequence cannot hold it anywhere in its ancestry — the
    // target itself was compared above, before pruning.
    if (c->sequence > target_sequence) {
      for (const Hash& p : c->parents) stack.push_back(p);
    }
  }
  return false;
}

// One member of a publish: its content commit — its root on top of the
// head it read, exactly the commit it would land alone — and its race
// state.
struct Member {
  std::string bytes;  ///< encoded content commit
  Hash digest;
  uint64_t sequence = 0;
  std::optional<Hash> seen;  ///< head it last built on or lost a race to
  int cas_failures = 0;
};

}  // namespace

std::vector<PublishOutcome> PublishBatch(
    BranchManager* mgr, const std::vector<const PublishSpec*>& specs,
    const MergeCommitOptions& opts) {
  SIRI_CHECK(!specs.empty() && specs.size() <= kMaxBatch);
  const std::string& branch = specs[0]->branch;
  ImmutableIndex* index = specs[0]->index;
  const bool alone = specs.size() == 1;
  std::vector<PublishOutcome> out(specs.size());
  auto fail = [&out](const std::vector<size_t>& members, const Status& st) {
    for (size_t i : members) out[i] = Result<MergeCommitResult>(st);
  };

  // Every member's content commit, built (and its parent read) BEFORE any
  // merge work, so every fallible step is behind us once pages flow into
  // a shared staging batch.
  std::vector<Member> members(specs.size());
  std::vector<size_t> pending;  // members still racing for the head
  for (size_t i = 0; i < specs.size(); ++i) {
    const PublishSpec& s = *specs[i];
    SIRI_CHECK(s.branch == branch);
    Commit ours;
    ours.root = s.new_root;
    ours.author = s.author;
    ours.message = s.message;
    if (s.expected_head) {
      ours.parents.push_back(*s.expected_head);
      auto parent = mgr->ReadCommit(*s.expected_head);
      if (!parent.ok()) {
        out[i] = Result<MergeCommitResult>(parent.status());
        continue;
      }
      ours.sequence = parent->sequence + 1;
    }
    Member& m = members[i];
    m.bytes = ours.Encode();
    m.digest = Sha256::Digest(m.bytes);
    m.sequence = ours.sequence;
    m.seen = s.expected_head;
    pending.push_back(i);
  }

  // The head the first attempt builds on. Alone, a member tries the head
  // it read: fresh, that is one CAS (the fast path); stale, the CAS fails
  // its pre-check before anything is written. With company, the current
  // head, so no member's merge is spent on a stale guess.
  std::optional<Hash> head;
  if (alone) {
    head = specs[0]->expected_head;
  } else {
    auto h = mgr->Head(branch);
    if (h.ok()) {
      head = *h;
    } else if (!h.status().IsNotFound()) {
      fail(pending, h.status());
      return out;
    }
  }

  // Folding runs Merge3(acc, member, base): it applies only the member's
  // (small) delta, not the whole chain's, which makes the accumulated side
  // "ours" at the Merge3 layer. The user resolver sees the member as
  // "ours".
  ConflictResolver member_resolver;
  if (opts.resolver) {
    const ConflictResolver& user = opts.resolver;
    member_resolver = [&user](const std::string& key,
                              const std::optional<std::string>& acc_side,
                              const std::optional<std::string>& member_side) {
      return user(key, member_side, acc_side);
    };
  }

  while (!pending.empty()) {
    // Back off before re-merging after a member's second and later lost
    // races.
    int retry = 0;
    for (size_t i : pending) {
      const Member& m = members[i];
      if (m.seen != head && m.cas_failures < opts.max_retries) {
        retry = std::max(retry, m.cas_failures);
      }
    }
    if (retry > 0) {
      const uint64_t us = MergeBackoffMicros(opts, retry - 1);
      if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
    }

    Hash head_root = index->EmptyRoot();
    uint64_t max_seq = 0;
    if (head) {
      auto hc = mgr->ReadCommit(*head);
      if (!hc.ok()) {
        fail(pending, hc.status());
        return out;
      }
      head_root = hc->root;
      max_seq = hc->sequence;
    }
    Hash acc_root = head_root;

    // One staging batch for the whole attempt: every merged page and
    // every commit object lands in ONE PutMany and ONE flush at the head
    // CAS below; a lost CAS drops it unflushed.
    auto staging = std::make_shared<StagingNodeStore>(index->store());
    std::vector<size_t> landed;
    // Content digests staged this attempt. A second member with the same
    // digest is the replay of the first (content commits are
    // deterministic), still queued when the replay arrived: a twin. It is
    // staged once and both are acked.
    PageSet staged_digests;
    std::vector<size_t> twins;

    for (size_t i : pending) {
      Member& m = members[i];
      const PublishSpec& s = *specs[i];
      if (m.seen != head) {
        if (!head) {
          out[i] = Result<MergeCommitResult>(
              Status::NotFound("branch " + branch));
          continue;
        }
        // Lost a race: a commit landed after this member last looked.
        if (m.cas_failures >= opts.max_retries) {
          out[i] = Result<MergeCommitResult>(Status::Conflict(
              "branch '" + branch + "' still contended after " +
              std::to_string(opts.max_retries) + " merge retries"));
          continue;
        }
        mgr->RecordMergeRetry(branch);
        if (opts.on_retry) opts.on_retry(m.cas_failures, *head);
        ++m.cas_failures;
        m.seen = head;
        // Exactly-once under lost acks: this may be the replay of a
        // publish whose original landed but whose ack never made it back.
        // Re-merging would double-apply. Checking at every lost race is
        // what makes it race-free: whichever of original and replay loses
        // the head CAS observes the other's landing here.
        auto applied =
            CommitAlreadyApplied(mgr, *head, m.digest, m.sequence);
        if (!applied.ok()) {
          out[i] = Result<MergeCommitResult>(applied.status());
          continue;
        }
        if (*applied) {
          MergeCommitResult mr;
          mr.head = *head;
          mr.commit = m.digest;
          mr.cas_failures = m.cas_failures;
          mr.already_applied = true;
          out[i] = Result<MergeCommitResult>(std::move(mr));
          continue;
        }
      }
      if (staged_digests.count(m.digest) > 0) {
        twins.push_back(i);
        continue;
      }

      // Base of this member's delta: the merge base of what it built on
      // and the head it is folded onto.
      Hash base_root = head_root;
      if (s.expected_head != head) {
        auto br = MergeBaseRoot(mgr, index, s.expected_head, *head);
        if (!br.ok()) {
          out[i] = Result<MergeCommitResult>(br.status());
          continue;
        }
        base_root = *br;
      }

      Hash merged_root;
      if (acc_root == base_root) {
        merged_root = s.new_root;  // fast-forward: nothing landed since base
      } else if (s.new_root == base_root) {
        merged_root = acc_root;  // empty delta: nothing of ours to fold in
      } else {
        // Nested per-member staging: a member that conflicts mid-merge is
        // dropped WITH its partial pages — it writes zero pages to the
        // shared batch, let alone the store.
        auto nested = std::make_shared<StagingNodeStore>(staging.get());
        auto merged = index->WithStore(nested)->Merge3(
            acc_root, s.new_root, base_root, member_resolver);
        if (!merged.ok()) {
          // With company the conflict may be with another member's delta:
          // the member publishes again alone (its outcome stays unset).
          // Alone, the conflict is with the head, and it is final.
          if (alone || !merged.status().IsConflict()) {
            out[i] = Result<MergeCommitResult>(merged.status());
          }
          continue;
        }
        nested->FlushBatch();  // relays pre-digested records; no re-hash
        merged_root = *merged;
      }
      (void)staging->Put(m.bytes);  // its digest is m.digest
      staged_digests.insert(m.digest);
      max_seq = std::max(max_seq, m.sequence);
      acc_root = merged_root;
      landed.push_back(i);
    }
    if (landed.empty()) break;

    // A lone member whose expectation still matches the head lands its
    // content commit as the head. Anything else lands one merge commit:
    // parents = [head, content_1 … content_K] (first parent the head, so
    // the branch's first-parent chain stays the landing order).
    Hash desired = members[landed[0]].digest;
    const bool merge =
        landed.size() > 1 || specs[landed[0]]->expected_head != head;
    std::shared_ptr<const NodeBatch> staged;
    if (merge) {
      Commit mc;
      mc.root = acc_root;
      if (head) mc.parents.push_back(*head);
      for (size_t i : landed) mc.parents.push_back(members[i].digest);
      if (landed.size() == 1) {
        mc.author = specs[landed[0]]->author;
        mc.message = "merge: " + specs[landed[0]]->message;
      } else {
        mc.author = "group-commit";
        mc.message = "combine: " + std::to_string(landed.size()) + " commits";
      }
      mc.sequence = max_seq + 1;
      desired = staging->Put(mc.Encode());
      // Captured before the CAS flushes and clears the batch: the
      // publish-ack cache push ships exactly these nodes — the ones every
      // losing committer re-reads next round.
      staged = std::make_shared<const NodeBatch>(staging->staged_batch());
    }

    // One head swing for the whole batch. CompareAndSwapHead pre-checks,
    // flushes the staged batch (ONE PutMany + ONE store flush), re-checks
    // and swings — durability precedes visibility.
    CasResult cas =
        mgr->CompareAndSwapHead(branch, head, desired, staging.get());
    landed.insert(landed.end(), twins.begin(), twins.end());
    if (cas.ok()) {
      for (size_t i : landed) {
        MergeCommitResult mr;
        mr.head = desired;
        mr.commit = members[i].digest;
        mr.cas_failures = members[i].cas_failures;
        mr.merge_commits = merge ? 1 : 0;
        mr.staged = staged;
        out[i] = Result<MergeCommitResult>(std::move(mr));
      }
      // Twins ack their original's landing without a second execution.
      for (size_t i : twins) (*out[i])->already_applied = true;
      const size_t executed = landed.size() - twins.size();
      if (executed > 1) mgr->RecordCombinedCommits(branch, executed);
      return out;
    }
    if (!cas.status.IsConflict()) {
      fail(landed, cas.status);
      return out;
    }
    // The head moved mid-attempt: the staged attempt is dropped (or, if
    // the re-check after the flush lost, is harmless content-addressed
    // garbage). Every member still in play — twins rejoin as ordinary
    // members — has lost a race to the head that won.
    head = cas.conflict->actual_head;
    pending = std::move(landed);
  }
  return out;
}

Result<MergeCommitResult> CommitWithMerge(
    BranchManager* mgr, ImmutableIndex* index, const std::string& branch,
    const Hash& new_root, const std::string& author,
    const std::string& message, const std::optional<Hash>& expected_head,
    const MergeCommitOptions& opts) {
  const PublishSpec spec{index, branch, new_root, author, message,
                         expected_head};
  PublishOutcome outcome = std::move(PublishBatch(mgr, {&spec}, opts)[0]);
  SIRI_CHECK(outcome.has_value());  // a batch of one never falls back
  return std::move(*outcome);
}

}  // namespace siri
