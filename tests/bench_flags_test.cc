// Copyright (c) 2026 The siri Authors. MIT license.
//
// Bench flag validation (bench/bench_common.h): FirstUnknownFlag's
// matching rules, and ParseScale's fail-fast rejection of anything not in
// kKnownBenchFlags — a typo'd flag must abort the run instead of silently
// benchmarking the defaults and poisoning a recorded trajectory.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace siri {
namespace bench {
namespace {

/// Fabricated argv (argv[0] is the program name, as in main).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "bench_binary");
    ptrs_.reserve(args_.size());
    for (auto& a : args_) ptrs_.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(BenchFlagsTest, NoArgumentsIsClean) {
  Argv a({});
  EXPECT_EQ(FirstUnknownFlag(a.argc(), a.argv()), nullptr);
}

TEST(BenchFlagsTest, EveryKnownFlagIsAccepted) {
  Argv a({"--scale=8", "--threads=1,2,4", "--write-threads=2", "--help",
          "--threads-only", "--write-scaling-only", "--branch-commits-only",
          "--group-commit-only", "--smoke"});
  EXPECT_EQ(FirstUnknownFlag(a.argc(), a.argv()), nullptr);
}

TEST(BenchFlagsTest, ReturnsTheFirstUnknownFlag) {
  Argv a({"--scale=4", "--sclae=8", "--also-bad"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "--sclae=8");
}

TEST(BenchFlagsTest, PrefixFlagWithoutValueIsUnknown) {
  // "--threads=" is a prefix flag; bare "--threads" matches nothing.
  Argv a({"--threads"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "--threads");
}

TEST(BenchFlagsTest, ExactFlagWithValueIsUnknown) {
  // "--smoke" is exact-match; "--smoke=1" is a different (bad) spelling.
  Argv a({"--smoke=1"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "--smoke=1");
}

TEST(BenchFlagsTest, PositionalArgumentIsUnknown) {
  Argv a({"extra"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "extra");
}

TEST(BenchFlagsTest, ParseScaleStillParsesScale) {
  Argv a({"--scale=8", "--smoke"});
  EXPECT_EQ(ParseScale(a.argc(), a.argv()), 8u);
}

TEST(BenchFlagsDeathTest, ParseScaleExitsNonZeroOnUnknownFlag) {
  // A typo, and the retired fig06 socket-mode flags: an old invocation
  // must abort instead of silently running the in-process sections.
  for (const std::string flag : {"--sclae=8", "--transport=socket", "--chaos",
                                 "--pipeline", "--disk-fault=enospc"}) {
    Argv a({flag});
    EXPECT_EXIT(ParseScale(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
                "unrecognized argument '" + flag + "'");
  }
}

}  // namespace
}  // namespace bench
}  // namespace siri
