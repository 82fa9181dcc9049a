// Exit-code contract test for the msprint CLI. The ladder in
// src/common/exit_codes.h is append-only public API — CI scripts and the
// paper's drive harnesses branch on these numbers — so every rung is
// exercised end-to-end against the real binary here, not against unit
// seams. Each case runs `msprint <verb> ...` via std::system and asserts
// the literal WEXITSTATUS.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "gtest/gtest.h"
#include "src/common/exit_codes.h"

namespace msprint {
namespace {

// Runs the msprint binary with `args`, sending stderr to `stderr_path`
// and stdout to `stdout_path`, and returns its exit status (or -1 if the
// shell invocation itself failed).
int RunMsprint(const std::string& args,
               const std::string& stderr_path = "/dev/null",
               const std::string& stdout_path = "/dev/null") {
  const std::string cmd = std::string(MSPRINT_BINARY) + " " + args + " >" +
                          stdout_path + " 2>" + stderr_path;
  const int raw = std::system(cmd.c_str());
  if (raw == -1 || !WIFEXITED(raw)) {
    return -1;
  }
  return WEXITSTATUS(raw);
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
            contents.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The usage text, pinned byte for byte in tests/golden/cli_help.txt: the
// stdout of `msprint help` and the stderr of `msprint` with no arguments
// and with an unknown command, each with its exit status. Regenerate (only
// when intentionally changing the text) with
// MSPRINT_UPDATE_GOLDEN=1 ./build/tests/cli_test
TEST(CliHelpTest, UsageMatchesCommittedGolden) {
  const std::string out = ::testing::TempDir() + "/cli_help.out";
  const std::string err = ::testing::TempDir() + "/cli_help.err";
  std::string got;
  const auto capture = [&](const std::string& args, bool from_stdout) {
    const int status = RunMsprint(args, err, out);
    got += "== msprint " + args + " (" + (from_stdout ? "stdout" : "stderr") +
           ", exit " + std::to_string(status) + ")\n" +
           ReadFileOrEmpty(from_stdout ? out : err);
  };
  capture("help", true);
  capture("", false);
  capture("no-such-command", false);

  const std::string path =
      std::string(MSPRINT_SOURCE_DIR) + "/tests/golden/cli_help.txt";
  if (const char* update = std::getenv("MSPRINT_UPDATE_GOLDEN");
      update != nullptr && update[0] != '\0' && update[0] != '0') {
    WriteFileOrDie(path, got);
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  const std::string want = ReadFileOrEmpty(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (generate with MSPRINT_UPDATE_GOLDEN=1)";
  EXPECT_EQ(got, want);
}

TEST(CliExitCodeTest, Exit0Success) {
  EXPECT_EQ(RunMsprint("help"), kExitOk);
  EXPECT_EQ(RunMsprint("--help"), kExitOk);
}

TEST(CliExitCodeTest, Exit1RuntimeFailure) {
  // Readable verb, unreadable input: a runtime failure, not a usage error.
  EXPECT_EQ(RunMsprint("obs-diff /nonexistent/a.metrics /nonexistent/b.metrics"),
            kExitRuntime);
  EXPECT_EQ(RunMsprint("predict --profile /nonexistent/profile.bin"),
            kExitRuntime);
}

TEST(CliExitCodeTest, Exit2UsageErrors) {
  EXPECT_EQ(RunMsprint("no-such-command"), kExitUsage);
  EXPECT_EQ(RunMsprint(""), kExitUsage);
  // Positional argument where only --flags are accepted.
  EXPECT_EQ(RunMsprint("stats bogus-positional"), kExitUsage);
  // Flag value that fails domain parsing — the drift the shared FlagError
  // helper pins: every verb's bad value is exit 2, never exit 1.
  EXPECT_EQ(RunMsprint("profile --workload no-such-workload"), kExitUsage);
  EXPECT_EQ(RunMsprint("whatif --queries 50 --knobs no-such-knob"),
            kExitUsage);
  EXPECT_EQ(RunMsprint("whatif --queries 50 --deltas 0"), kExitUsage);
  EXPECT_EQ(RunMsprint("slo --queries 50 --format bogus"), kExitUsage);
  // A flag the verb never reads, misspelled or meant for another verb, is
  // refused before the run instead of being silently ignored.
  const std::string unread_err = ::testing::TempDir() + "/cli_unread.err";
  EXPECT_EQ(RunMsprint("faults --queries 200 --bugdet 0.9", unread_err),
            kExitUsage);
  EXPECT_NE(ReadFileOrEmpty(unread_err).find("flag bugdet: "),
            std::string::npos)
      << ReadFileOrEmpty(unread_err);
  EXPECT_EQ(RunMsprint("watch --queries 300 --format bogus"), kExitUsage);
  // A run size the testbed cannot run is a bad flag value on every
  // testbed verb, reported before any run starts.
  const std::string dir = ::testing::TempDir();
  const std::string testbed_verbs[] = {"stats",   "trace", "explain",
                                       "faults",  "slo",   "watch",
                                       "whatif"};
  for (const std::string& verb : testbed_verbs) {
    EXPECT_EQ(RunMsprint(verb + " --queries 0"), kExitUsage) << verb;
    EXPECT_EQ(RunMsprint(verb + " --utilization 0"), kExitUsage) << verb;
    EXPECT_EQ(RunMsprint(verb + " --utilization -1"), kExitUsage) << verb;
    EXPECT_EQ(RunMsprint(verb + " --budget -1"), kExitUsage) << verb;
    EXPECT_EQ(RunMsprint(verb + " --refill 0"), kExitUsage) << verb;
  }
  EXPECT_EQ(RunMsprint("profile --workload Jacobi --queries 0 --out " + dir +
                       "/cli_zero_queries.prof"),
            kExitUsage);
  const std::string storm = dir + "/cli_zero_queries.storm";
  WriteFileOrDie(storm, "queries = 600\nwarmup = 60\n");
  EXPECT_EQ(RunMsprint("storm --config " + storm + " --queries 0"),
            kExitUsage);
  const std::string size_err = dir + "/cli_zero_queries.err";
  EXPECT_EQ(RunMsprint("explain --utilization -1", size_err), kExitUsage);
  EXPECT_NE(ReadFileOrEmpty(size_err).find("flag utilization: "),
            std::string::npos)
      << ReadFileOrEmpty(size_err);
  // Advisor and explorer counts the checkpoint reader or the explorer
  // would refuse are refused at the flags, before the profile is read.
  const std::string profile = " --profile " + dir + "/cli_no_such.prof";
  for (const std::string flag : {"chains", "iterations", "sim-queries"}) {
    const std::string zero = " --" + flag + " 0";
    EXPECT_EQ(RunMsprint("checkpoint" + profile + zero + " --out " + dir +
                         "/cli_zero.ckpt"),
              kExitUsage)
        << flag;
    for (const std::string verb : {"stats", "trace", "explain"}) {
      EXPECT_EQ(RunMsprint(verb + profile + zero), kExitUsage)
          << verb << " " << flag;
    }
  }
  // Model inputs no model can take are refused at the flags too, before
  // the profile is read or a model trained. Each bad value comes last, so
  // it overrides a valid one given earlier.
  const std::string model_verbs[] = {
      "predict" + profile + " --utilization 0.5 --budget 0.2",
      "explore" + profile + " --utilization 0.5 --budget 0.2",
      "replay" + profile + " --trace " + dir + "/cli_no_such.trace" +
          " --budget 0.2",
      "checkpoint" + profile + " --out " + dir + "/cli_bad_input.ckpt",
      "explain" + profile};
  for (const std::string& verb : model_verbs) {
    for (const std::string bad :
         {" --utilization 0", " --utilization -1", " --budget -1",
          " --refill 0"}) {
      EXPECT_EQ(RunMsprint(verb + bad), kExitUsage) << verb << bad;
    }
  }
  EXPECT_EQ(RunMsprint("explain" + profile + " --queries 0"), kExitUsage);
  const std::string percentile_err = dir + "/cli_percentile.err";
  for (const std::string q : {"1.5", "-0.5"}) {
    EXPECT_EQ(RunMsprint("predict" + profile +
                             " --utilization 0.5 --budget 0.2 --percentile " +
                             q,
                         percentile_err),
              kExitUsage)
        << q;
    EXPECT_NE(ReadFileOrEmpty(percentile_err).find("flag percentile: "),
              std::string::npos)
        << ReadFileOrEmpty(percentile_err);
  }
  for (const std::string verb : {"slo", "watch"}) {
    EXPECT_EQ(RunMsprint(verb + " --queries 50 --window 0"), kExitUsage)
        << verb;
    EXPECT_EQ(RunMsprint(verb + " --queries 50 --capacity 0"), kExitUsage)
        << verb;
  }
  const std::string count_err = dir + "/cli_zero_count.err";
  EXPECT_EQ(RunMsprint("explore" + profile +
                           " --utilization 0.5 --budget 0.2 --iterations 0",
                       count_err),
            kExitUsage);
  EXPECT_NE(ReadFileOrEmpty(count_err).find("flag iterations: must be at "
                                            "least 1"),
            std::string::npos)
      << ReadFileOrEmpty(count_err);
  // The message lists every value the flag accepts.
  const std::string err = ::testing::TempDir() + "/cli_inject_bug.err";
  EXPECT_EQ(RunMsprint("mc --inject-bug nope", err), kExitUsage);
  EXPECT_NE(ReadFileOrEmpty(err).find(
                "none|budget-debt|breaker-signal-drop|shed-signal-drop"),
            std::string::npos)
      << ReadFileOrEmpty(err);
}

TEST(CliExitCodeTest, Exit3ObsDiffBreach) {
  const std::string dir = ::testing::TempDir();
  const std::string a = dir + "/cli_exit3_a.metrics";
  const std::string b = dir + "/cli_exit3_b.metrics";
  WriteFileOrDie(a, "counter queries/total 100\n");
  WriteFileOrDie(b, "counter queries/total 200\n");
  EXPECT_EQ(RunMsprint("obs-diff " + a + " " + b), kExitObsDiffBreach);
  EXPECT_EQ(RunMsprint("obs-diff " + a + " " + a), kExitOk);
}

TEST(CliExitCodeTest, Exit4McViolation) {
  // The CI falsifiability sweep's recipe: a seeded bug the checker must
  // catch within a short horizon.
  EXPECT_EQ(RunMsprint("mc --horizon 5 --inject-bug budget-debt"),
            kExitMcViolation);
}

TEST(CliExitCodeTest, Exit5StormGateFailure) {
  // A short storm run cannot sustain a 99x goodput ratio.
  EXPECT_EQ(RunMsprint("storm --queries 400 --require-ratio 99"),
            kExitStormGate);
}

TEST(CliExitCodeTest, Exit6SloBurnThrough) {
  const std::string objectives = ::testing::TempDir() + "/cli_exit6.slo";
  WriteFileOrDie(objectives,
                 "window 200\n"
                 "objective p99 < 0.001 budget 0.0001\n");
  EXPECT_EQ(RunMsprint("slo --queries 300 --objectives " + objectives),
            kExitSloBurnThrough);
}

TEST(CliExitCodeTest, Exit7WhatifRequiredGainUnmet) {
  const std::string base = "whatif --workload Jacobi --seed 7 --queries 200 ";
  // No knob buys a 99% mean-response reduction on this workload.
  EXPECT_EQ(RunMsprint(base + "--deltas 0.25 --require-gain 0.99"),
            kExitWhatifNoGain);
  // Doubling the service rate easily clears a 10% bar: the gate passes.
  EXPECT_EQ(RunMsprint(base +
                       "--knobs service-rate --deltas 1 --require-gain 0.1"),
            kExitOk);
}

// `slo` and `watch --storm F` apply a storm's --queries and --seed
// overrides, as `storm --config F` and `whatif --storm F` do.
TEST(CliFlagTest, SloStormAppliesQueriesAndSeedOverrides) {
  const std::string dir = ::testing::TempDir();
  const std::string storm = dir + "/cli_overrides.storm";
  WriteFileOrDie(storm, "queries = 600\nwarmup = 60\n");
  const std::string slo = "slo --storm " + storm + " --out ";
  ASSERT_EQ(RunMsprint(slo + dir + "/cli_overrides_a.txt --queries 300"),
            kExitOk);
  ASSERT_EQ(RunMsprint(slo + dir + "/cli_overrides_b.txt"), kExitOk);
  const std::string b = ReadFileOrEmpty(dir + "/cli_overrides_b.txt");
  ASSERT_FALSE(b.empty());
  EXPECT_NE(ReadFileOrEmpty(dir + "/cli_overrides_a.txt"), b);

  const std::string watch = "watch --storm " + storm + " --out ";
  ASSERT_EQ(RunMsprint(watch + dir + "/cli_overrides_c.txt --seed 9"),
            kExitOk);
  ASSERT_EQ(RunMsprint(watch + dir + "/cli_overrides_d.txt"), kExitOk);
  EXPECT_NE(ReadFileOrEmpty(dir + "/cli_overrides_c.txt"),
            ReadFileOrEmpty(dir + "/cli_overrides_d.txt"));
}

}  // namespace
}  // namespace msprint
