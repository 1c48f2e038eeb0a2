// Copyright (c) 2026 The siri Authors. MIT license.

#include "version/group_commit.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace siri {

CommitCombiner::CommitCombiner(BranchManager* mgr, GroupCommitOptions opts)
    : mgr_(mgr), opts_(std::move(opts)) {}

CommitCombiner::~CommitCombiner() { Shutdown(); }

bool CommitCombiner::IdleLocked() const {
  for (const auto& [name, lane] : lanes_) {
    // users covers threads whose request is already done but which are
    // still inside Publish (e.g. blocked reacquiring the mutex after a
    // completion wakeup): the combiner is not idle — and must not be
    // destroyed — until they have left the lane.
    if (lane.leader_active || !lane.queue.empty() || lane.users > 0) {
      return false;
    }
  }
  return true;
}

void CommitCombiner::Shutdown() {
  MutexLock lock(mu_);
  shutdown_ = true;
  // Requests already queued keep draining — each has an owner thread
  // driving it through the lane — so shutting down just means waiting for
  // the lanes to empty. New Publish calls bypass the queue from now on.
  // (Manual wait loop: a predicate lambda would hide the IdleLocked()
  // call from the thread-safety analysis.)
  while (!IdleLocked()) drain_cv_.wait(lock.native());
}

CommitCombiner::Stats CommitCombiner::stats() const {
  Stats s;
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.combined_commits = combined_commits_.load(std::memory_order_relaxed);
  s.solo_commits = solo_commits_.load(std::memory_order_relaxed);
  s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  s.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  return s;
}

std::vector<PublishOutcome> CommitCombiner::RunBatch(
    const std::vector<const PublishSpec*>& specs) {
  std::vector<PublishOutcome> out = PublishBatch(mgr_, specs, opts_.merge);
  // Commits the head swing executed; acks of an earlier landing (lost-ack
  // replays) executed nothing.
  uint64_t executed = 0;
  for (const PublishOutcome& o : out) {
    if (o && o->ok() && !(*o)->already_applied) ++executed;
  }
  if (executed == 0) return out;
  publishes_.fetch_add(1, std::memory_order_relaxed);
  (executed == 1 ? solo_commits_ : combined_commits_)
      .fetch_add(executed, std::memory_order_relaxed);
  uint64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
  while (seen < executed &&
         !max_batch_seen_.compare_exchange_weak(seen, executed,
                                                std::memory_order_relaxed)) {
  }
  return out;
}

Result<MergeCommitResult> CommitCombiner::RunFallback(
    const PublishSpec& spec) {
  auto res = CommitWithMerge(mgr_, spec.index, spec.branch, spec.new_root,
                             spec.author, spec.message, spec.expected_head,
                             opts_.merge);
  // Counted unless the republish only acked an earlier landing.
  if (!(res.ok() && res->already_applied)) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return res;
}

Result<MergeCommitResult> CommitCombiner::Publish(const PublishSpec& spec) {
  Request req;
  req.spec = &spec;
  {
    MutexLock lock(mu_);
    if (!shutdown_) {
      Lane& lane = lanes_[spec.branch];
      ++lane.users;
      lane.queue.push_back(&req);
      // A leader gathering inside its publish window learns of us now.
      if (lane.leader_active) lane.cv.notify_all();
      while (!req.done) {
        if (!lane.leader_active && lane.queue.front() == &req) {
          lane.leader_active = true;
          // Wait-a-little: a leader with company holds the door open for
          // stragglers up to the window; a solo committer publishes
          // immediately and never waits.
          if (opts_.window_micros > 0 && lane.queue.size() > 1 &&
              lane.queue.size() < kMaxBatch) {
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(opts_.window_micros);
            while (lane.queue.size() < kMaxBatch &&
                   lane.cv.wait_until(lock.native(), deadline) !=
                       std::cv_status::timeout) {
            }
          }
          std::vector<Request*> group;
          std::vector<const PublishSpec*> specs;
          while (!lane.queue.empty() && group.size() < kMaxBatch) {
            group.push_back(lane.queue.front());
            specs.push_back(lane.queue.front()->spec);
            lane.queue.pop_front();
          }
          lock.Unlock();
          std::vector<PublishOutcome> outcomes = RunBatch(specs);
          // Written before `done` is set under mu_: each owner reads its
          // result only after seeing `done`.
          for (size_t i = 0; i < group.size(); ++i) {
            group[i]->result = std::move(outcomes[i]);
          }
          lock.Lock();
          for (Request* r : group) r->done = true;
          lane.leader_active = false;
          lane.cv.notify_all();
          drain_cv_.notify_all();
          break;  // our own request led from the front, so it is done
        }
        lane.cv.wait(lock.native());
      }
      // Last thread out of an idle lane erases it, so the lane map does
      // not grow with every branch name ever published. Anyone still
      // queued or leading keeps it alive (their wait sits on its cv).
      // Shutdown's drain predicate counts users too, so it learns of the
      // exit here.
      if (--lane.users == 0 && lane.queue.empty() && !lane.leader_active) {
        lanes_.erase(spec.branch);
        drain_cv_.notify_all();
      }
    }
  }
  // Shut down: publish uncombined, as a batch of one.
  if (!req.done) req.result = std::move(RunBatch({&spec})[0]);
  if (req.result) return std::move(*req.result);
  // This member fell out of its batch: it publishes again alone, on its
  // own thread.
  return RunFallback(spec);
}

std::vector<Result<MergeCommitResult>> CommitCombiner::PublishCombined(
    const std::vector<PublishSpec>& specs) {
  // Chain of maximal batches: later chunks chain on the head the earlier
  // ones swung.
  std::vector<PublishOutcome> outcomes;
  outcomes.reserve(specs.size());
  for (size_t start = 0; start < specs.size(); start += kMaxBatch) {
    std::vector<const PublishSpec*> chunk;
    for (size_t i = start; i < std::min(specs.size(), start + kMaxBatch);
         ++i) {
      chunk.push_back(&specs[i]);
    }
    for (PublishOutcome& o : RunBatch(chunk)) outcomes.push_back(std::move(o));
  }
  std::vector<Result<MergeCommitResult>> out;
  out.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    out.push_back(outcomes[i] ? std::move(*outcomes[i])
                              : RunFallback(specs[i]));
  }
  return out;
}

}  // namespace siri
