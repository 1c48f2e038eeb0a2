// Copyright (c) 2026 The siri Authors. MIT license.
//
// perfbench — the repo benchmark's program. Normally started by
// perfbench/run.py, which builds it first:
//
//   perfbench --workload=shared_branch|read_mostly|version_ops --seed=N
//             --seconds=S --trace=0|1 --work-dir=DIR [--rev=R]
//             [--src-digest=D]
//
// --trace=0 runs the workload untraced and reports the end-to-end
// metrics. --trace=1 runs it untraced and then traced (same program
// configuration, decorators recording spans) and reports the per-layer
// metrics plus the tracing overhead of every end-to-end metric. Before
// the result, '#'-prefixed lines record the environment and the
// informational tails. The last line is the result object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
// Exit status is 0 only when every correctness check passed.

#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::MetricMap;
using perfbench::RunResult;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuInfo(const char* field) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool HasFlag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string f;
  while (in >> f) {
    if (f == flag) return true;
  }
  return false;
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

void PrintEnv(const perfbench::Options& o, const std::string& rev,
              const std::string& digest) {
  const std::string flags = CpuInfo("flags");
  std::printf(
      "# env {\"rev\": %s, \"src_digest\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"cpu\": %s, \"sha_ni\": %s, \"avx512f\": %s, "
      "\"nproc\": %u, \"data_fs\": %s, \"io.bare_fsync_ms\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      JsonString(rev).c_str(), JsonString(digest).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(CpuInfo("model name")).c_str(),
      HasFlag(flags, "sha_ni") ? "true" : "false",
      HasFlag(flags, "avx512f") ? "true" : "false",
      std::thread::hardware_concurrency(), JsonString(FsType(o.work_dir)).c_str(),
      Number(perfbench::BareFsyncMs(o.work_dir, 16)).c_str(),
      JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      Number(o.seconds).c_str(), o.trace ? 1 : 0);
}

RunResult Run(const perfbench::Options& o, bool traced) {
  if (o.workload == "shared_branch") return perfbench::RunSharedBranch(o, traced);
  if (o.workload == "read_mostly") return perfbench::RunReadMostly(o, traced);
  return perfbench::RunVersionOps(o, traced);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=shared_branch|read_mostly|version_ops "
               "--seed=N --seconds=S --trace=0|1 --work-dir=DIR [--rev=R] "
               "[--src-digest=D]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string rev = "unknown", digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) return Usage(argv[0]);
    const std::string key = arg.substr(0, eq), val = arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else if (key == "--rev") {
      rev = val;
    } else if (key == "--src-digest") {
      digest = val;
    } else {
      return Usage(argv[0]);
    }
  }
  if ((o.workload != "shared_branch" && o.workload != "read_mostly" &&
       o.workload != "version_ops") ||
      o.seconds <= 0 || o.work_dir.empty()) {
    return Usage(argv[0]);
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(o.work_dir);
  PrintEnv(o, rev, digest);

  // A traced run repeats the untraced execution as the overhead reference;
  // to fit one run's time budget each execution measures half as long (and
  // sets up once, see RepeatSetup).
  if (o.trace) o.seconds /= 2;
  RunResult base = Run(o, false);
  RunResult result = base;
  if (o.trace) {
    result = Run(o, true);
    for (const auto& [name, m] : base.e2e) {
      const auto it = result.e2e.find(name);
      const double traced = it == result.e2e.end() ? 0 : it->second.value;
      result.layer["trace_overhead." + name] = {
          m.value == 0 ? 0 : traced / m.value - 1, "ratio"};
      result.info.push_back("trace overhead " + name + ": untraced " +
                            Number(m.value) + " traced " + Number(traced) + " " +
                            m.unit);
    }
    result.attempted += base.attempted;
    result.failed += base.failed;
    result.errors.insert(result.errors.begin(), base.errors.begin(),
                         base.errors.end());
  }

  for (const std::string& line : result.info) std::printf("# %s\n", line.c_str());
  for (const std::string& e : result.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = result.errors.empty() && result.failed == 0;
  const MetricMap& metrics = o.trace ? result.layer : result.e2e;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            Number(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
