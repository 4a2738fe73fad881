// dcertctl argument handling, pinned end-to-end: unknown subcommands and
// malformed arguments must print the usage banner and exit nonzero (exit 2),
// and the happy paths must exit 0, including the operator path of a served
// chain queried over TCP. The binary path comes from the build system via
// DCERTCTL_PATH ($<TARGET_FILE:dcertctl>).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs dcertctl with `args`, capturing combined output and the exit code.
CliResult RunCli(const std::string& args) {
  const std::string cmd = std::string(DCERTCTL_PATH) + " " + args + " 2>&1";
  CliResult r;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.output.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

bool PrintsUsage(const CliResult& r) {
  return r.output.find("usage: dcertctl") != std::string::npos;
}

TEST(Cli, NoArgsPrintsUsage) {
  const CliResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(PrintsUsage(r)) << r.output;
}

TEST(Cli, UnknownSubcommandPrintsUsageAndFailsNonzero) {
  const CliResult r = RunCli("bogus-subcommand");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(PrintsUsage(r)) << r.output;
}

TEST(Cli, DemoRejectsMalformedBlockCount) {
  for (const char* bad : {"demo not-a-number", "demo -3", "demo 5 12abc"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, QueryRejectsMalformedTargetAndArgs) {
  // Malformed targets: no port, empty host, port 0, non-numeric port.
  for (const char* bad :
       {"query localhost tip", "query :123 tip", "query localhost:0 tip",
        "query localhost:abc tip", "query localhost:70000 tip"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
  // Well-formed target but malformed numeric args; parsing happens before
  // any connection, so no server is required.
  for (const char* bad :
       {"query localhost:19999 hist abc 1 2", "query localhost:19999 hist 1 x 2",
        "query localhost:19999 agg 1 2", "query localhost:19999 frobnicate"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, StatsRejectsMalformedTargetAndUnknownFormat) {
  for (const char* bad : {"stats localhost", "stats localhost:0",
                          "stats localhost:19999 --yaml"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, ServeRejectsMalformedPort) {
  for (const char* bad : {"serve abc", "serve 70000", "serve 0 xyz"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, ServeRejectsMalformedShardSpec) {
  // --shard wants i/N with i < N; --map-version must be a positive number.
  for (const char* bad :
       {"serve 0 --shard", "serve 0 --shard 4", "serve 0 --shard a/b",
        "serve 0 --shard 2/2", "serve 0 --shard 3/2", "serve 0 --shard 0/0",
        "serve 0 --shard 0/2 --map-version 0",
        "serve 0 --shard 0/2 --map-version abc"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, StatsAcceptsMultipleTargetsButRejectsAnyMalformedOne) {
  // Multi-endpoint stats validates every target up front; one bad endpoint
  // fails the whole invocation before anything is dialed.
  for (const char* bad :
       {"stats localhost:19999 localhost", "stats localhost:19999 bad:0",
        "stats localhost:19999 localhost:19998 --yaml"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, FleetQueryRejectsMalformedEndpointListAndArgs) {
  for (const char* bad :
       {// missing everything / unknown op / malformed numerics
        "fleet-query", "fleet-query localhost:19999 tip",
        "fleet-query localhost:19999 hist abc 1 2",
        "fleet-query localhost:19999 agg 1 2",
        // endpoint list shape: bad target, empty group, ragged replicas
        "fleet-query localhost hist 1 1 2",
        "fleet-query localhost:19999,, hist 1 1 2",
        "fleet-query localhost:19999+localhost:19998,localhost:19997 hist 1 1 2",
        // paranoid mode needs at least two replicas per shard
        "fleet-query localhost:19999,localhost:19998 hist 1 1 2 --paranoid",
        // map version 0 is reserved for "unsharded"
        "fleet-query localhost:19999 hist 1 1 2 --map-version 0"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, StatsReportsUnreachableEndpointsInlineAndFailsOnlyIfAllDo) {
  // Ports 1 and 2 are never listening; with every endpoint down the merged
  // table is impossible, so the exit is a runtime failure (1, not a usage 2)
  // and each endpoint's failure is named in the output.
  const CliResult r = RunCli("stats 127.0.0.1:1 127.0.0.1:2");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_FALSE(PrintsUsage(r)) << r.output;
  EXPECT_NE(r.output.find("stats fetch from 127.0.0.1:1 failed"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("stats fetch from 127.0.0.1:2 failed"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("no endpoint reachable (2 tried)"), std::string::npos)
      << r.output;
}

TEST(Cli, FleetHealthRejectsMalformedArgs) {
  for (const char* bad :
       {// nothing to do: no endpoints and no evidence file
        "fleet-health",
        // malformed targets fail validation before any dial
        "fleet-health localhost", "fleet-health localhost:0",
        "fleet-health localhost:19999 bad:port",
        // --release only makes sense against an evidence file
        "fleet-health localhost:19999 --release 2",
        "fleet-health --release 2",
        // flag argument shape
        "fleet-health localhost:19999 --evidence",
        "fleet-health localhost:19999 --release",
        "fleet-health localhost:19999 --release abc",
        "fleet-health localhost:19999 --bogus-flag"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
}

TEST(Cli, FleetHealthUnreachableEndpointIsRuntimeFailure) {
  const CliResult r = RunCli("fleet-health 127.0.0.1:1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_FALSE(PrintsUsage(r)) << r.output;
  EXPECT_NE(r.output.find("UNREACHABLE"), std::string::npos) << r.output;
}

TEST(Cli, FleetHealthListsEmptyEvidenceFileWithoutDialing) {
  // A missing evidence file reads as "no quarantines"; with no endpoints to
  // probe this is a pure local operation and succeeds.
  const std::string path = ::testing::TempDir() + "cli_no_evidence.bin";
  std::remove(path.c_str());
  const CliResult r = RunCli("fleet-health --evidence " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_FALSE(PrintsUsage(r)) << r.output;
  EXPECT_NE(r.output.find("0 misbehavior record(s)"), std::string::npos)
      << r.output;
}

TEST(Cli, MeasureSucceeds) {
  const CliResult r = RunCli("measure");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_FALSE(PrintsUsage(r));
}

TEST(Cli, KeygenSucceedsAndRejectsMissingSeed) {
  EXPECT_EQ(RunCli("keygen 42").exit_code, 0);
  // Any string is a valid seed; the error case is omitting it entirely.
  const CliResult bad = RunCli("keygen");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_TRUE(PrintsUsage(bad)) << bad.output;
}

TEST(Cli, FsckAndRecoverRejectMalformedArgs) {
  for (const char* bad : {"fsck", "recover", "recover /tmp/x notanum"}) {
    const CliResult r = RunCli(bad);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_TRUE(PrintsUsage(r)) << bad << ": " << r.output;
  }
  // A missing block log is a runtime failure (exit 1), not a usage error.
  const CliResult gone = RunCli("fsck /nonexistent/blocks.log");
  EXPECT_EQ(gone.exit_code, 1) << gone.output;
  EXPECT_FALSE(PrintsUsage(gone));
}

TEST(Cli, RecoverFreshThenResumeThenFsck) {
  const std::string dir = ::testing::TempDir() + "cli_recover";
  mkdir(dir.c_str(), 0755);
  for (const char* f : {"/blocks.log", "/certs.log", "/key.sealed"}) {
    std::remove((dir + f).c_str());
  }

  // First run creates the durable state and mines 2 blocks…
  const CliResult fresh = RunCli("recover " + dir + " 2");
  EXPECT_EQ(fresh.exit_code, 0) << fresh.output;
  EXPECT_NE(fresh.output.find("fresh start"), std::string::npos) << fresh.output;

  // …the second resumes from it, replaying the stored certified blocks under
  // the same sealed key, and extends the chain.
  const CliResult resumed = RunCli("recover " + dir + " 2");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resumed"), std::string::npos) << resumed.output;
  EXPECT_NE(resumed.output.find("replayed 2 certified block(s)"),
            std::string::npos)
      << resumed.output;

  // fsck cross-checks every stored certificate against its block.
  const CliResult fsck =
      RunCli("fsck " + dir + "/blocks.log " + dir + "/certs.log");
  EXPECT_EQ(fsck.exit_code, 0) << fsck.output;
  EXPECT_NE(fsck.output.find("fsck OK (4 cert(s) cross-checked)"),
            std::string::npos)
      << fsck.output;
}

TEST(Cli, ServeAnswersVerifiedQueriesAndStopsWhenStdinCloses) {
  // `dcertctl serve` with its stdin on a pipe: closing the pipe is the
  // operator's Ctrl-D.
  int in[2];
  int out[2];
  ASSERT_EQ(pipe(in), 0);
  ASSERT_EQ(pipe(out), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(in[0], STDIN_FILENO);
    dup2(out[1], STDOUT_FILENO);
    dup2(out[1], STDERR_FILENO);
    for (int fd : {in[0], in[1], out[0], out[1]}) close(fd);
    execl(DCERTCTL_PATH, DCERTCTL_PATH, "serve", "0", "4", "8",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(in[0]);
  close(out[1]);
  std::FILE* served = fdopen(out[0], "r");
  ASSERT_NE(served, nullptr);

  // The banner names the ephemeral port it bound.
  std::string output;
  std::string target;
  char line[512];
  while (target.empty() && std::fgets(line, sizeof(line), served) != nullptr) {
    output += line;
    unsigned port = 0;
    const char* at = std::strstr(line, "on 127.0.0.1:");
    if (std::strncmp(line, "serving ", 8) == 0 && at != nullptr &&
        std::sscanf(at, "on 127.0.0.1:%u", &port) == 1) {
      target = "127.0.0.1:" + std::to_string(port);
    }
  }
  ASSERT_FALSE(target.empty()) << output;

  const CliResult tip = RunCli("query " + target + " tip");
  EXPECT_EQ(tip.exit_code, 0) << tip.output;
  EXPECT_NE(tip.output.find("tip height:    4"), std::string::npos)
      << tip.output;
  EXPECT_NE(tip.output.find("certificates:  VALID"), std::string::npos)
      << tip.output;
  for (const char* what : {"hist", "agg"}) {
    const CliResult r = RunCli("query " + target + " " + what + " 0 1 4");
    EXPECT_EQ(r.exit_code, 0) << what << ": " << r.output;
    EXPECT_NE(r.output.find("proof VERIFIED against certified digest"),
              std::string::npos)
        << what << ": " << r.output;
  }

  close(in[1]);  // Ctrl-D: drain, stop, exit 0
  while (std::fgets(line, sizeof(line), served) != nullptr) output += line;
  std::fclose(served);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_NE(output.find("drained and stopped"), std::string::npos) << output;
}

}  // namespace
