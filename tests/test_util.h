// Copyright (c) 2026 The siri Authors. MIT license.
//
// Shared helpers for the test suite: index factories (so property tests can
// sweep all four structures), reference-model comparison, and tiny
// conveniences.

#ifndef SIRI_TESTS_TEST_UTIL_H_
#define SIRI_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "index/index.h"
#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/pos/pos_tree.h"
#include "net/transport.h"
#include "store/node_store.h"
#include "version/commit.h"

namespace siri {
namespace testing_util {

enum class IndexKind { kMpt, kMbt, kPos, kMvmb, kProlly };

inline const char* KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kMpt: return "mpt";
    case IndexKind::kMbt: return "mbt";
    case IndexKind::kPos: return "pos";
    case IndexKind::kMvmb: return "mvmb";
    case IndexKind::kProlly: return "prolly";
  }
  return "?";
}

/// Builds an index of the given kind over the given store. MBT uses a small
/// capacity so tests exercise multi-entry buckets.
inline std::unique_ptr<ImmutableIndex> MakeIndex(IndexKind kind,
                                                 NodeStorePtr store) {
  switch (kind) {
    case IndexKind::kMpt:
      return std::make_unique<Mpt>(std::move(store));
    case IndexKind::kMbt: {
      MbtOptions opt;
      opt.num_buckets = 64;
      opt.fanout = 4;
      return std::make_unique<Mbt>(std::move(store), opt);
    }
    case IndexKind::kPos:
      return std::make_unique<PosTree>(std::move(store));
    case IndexKind::kMvmb:
      return std::make_unique<MvmbTree>(std::move(store));
    case IndexKind::kProlly:
      return std::make_unique<PosTree>(std::move(store),
                                       PosTreeOptions::Prolly());
  }
  return nullptr;
}

/// All kinds, for INSTANTIATE_TEST_SUITE_P.
inline std::vector<IndexKind> AllKinds() {
  return {IndexKind::kMpt, IndexKind::kMbt, IndexKind::kPos, IndexKind::kMvmb,
          IndexKind::kProlly};
}

/// Reads every record reachable from \p root into a sorted map.
inline std::map<std::string, std::string> Dump(const ImmutableIndex& index,
                                               const Hash& root) {
  std::map<std::string, std::string> out;
  Status s = index.Scan(root, [&out](Slice k, Slice v) {
    out[k.ToString()] = v.ToString();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

/// Asserts that the index content under \p root equals \p expected, both by
/// scan and by point lookups.
inline void ExpectContent(const ImmutableIndex& index, const Hash& root,
                          const std::map<std::string, std::string>& expected) {
  EXPECT_EQ(Dump(index, root), expected);
  for (const auto& [k, v] : expected) {
    auto got = index.Get(root, k, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->has_value()) << "missing key " << k;
    EXPECT_EQ(**got, v);
  }
}

/// Deterministic key/value helpers.
inline std::string TKey(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

inline std::string TVal(int i, int version = 0) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "value%06d.v%d", i, version);
  return buf;
}

inline std::vector<KV> MakeKvs(int n, int version = 0) {
  std::vector<KV> kvs;
  kvs.reserve(n);
  for (int i = 0; i < n; ++i) kvs.push_back(KV{TKey(i), TVal(i, version)});
  return kvs;
}

/// Every commit reachable from \p head must carry a sequence strictly
/// greater than each of its parents' — the per-branch in-order invariant
/// that concurrent and pipelined publishers must not break.
inline void ExpectMonotonicSequences(BranchManager* branches,
                                     const Hash& head) {
  std::deque<Hash> frontier{head};
  std::set<std::string> seen{head.ToHex()};
  while (!frontier.empty()) {
    const Hash h = frontier.front();
    frontier.pop_front();
    auto c = branches->ReadCommit(h);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    for (const Hash& p : c->parents) {
      auto parent = branches->ReadCommit(p);
      ASSERT_TRUE(parent.ok()) << parent.status().ToString();
      EXPECT_LT(parent->sequence, c->sequence)
          << "commit " << h.ToHex() << " does not dominate parent "
          << p.ToHex();
      if (seen.insert(p.ToHex()).second) frontier.push_back(p);
    }
  }
}

/// One optimistic commit from a client: reads \p branch's head over
/// \p transport, applies \p kvs to that head's root through \p index
/// (bound to the client's store), and publishes the result expecting that
/// head, so a lost head race is merged server-side.
inline Result<net::PublishResult> CommitOnHead(net::Transport* transport,
                                               ImmutableIndex* index,
                                               const std::string& branch,
                                               std::vector<KV> kvs,
                                               const std::string& author,
                                               const std::string& message) {
  auto head = transport->Head(branch);
  if (!head.ok()) return head.status();
  auto node = index->store()->Get(*head);
  if (!node.ok()) return node.status();
  auto head_commit = Commit::Decode(**node);
  if (!head_commit.ok()) return head_commit.status();
  auto root = index->PutBatch(head_commit->root, std::move(kvs));
  if (!root.ok()) return root.status();
  net::PublishRequest pub;
  pub.structure = index->name();
  pub.branch = branch;
  pub.new_root = *root;
  pub.author = author;
  pub.message = message;
  pub.expected_head = *head;
  return transport->Publish(pub);
}

}  // namespace testing_util
}  // namespace siri

#endif  // SIRI_TESTS_TEST_UTIL_H_
