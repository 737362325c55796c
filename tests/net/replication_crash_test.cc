// kill -9 a real follower process mid-replication, restart it on its own
// WAL, and prove it resumes from its recovered epoch — no snapshot refetch
// needed, no epoch applied twice — and converges to verdict parity with
// the primary. This is the process-level acceptance for epoch-stream
// replication: both ends are the actual ufilter_server binary talking the
// real wire protocol.
//
// Requires the ufilter_server binary, located via the UFILTER_SERVER_BIN
// environment variable (set by CMake); skipped when absent.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "fixtures/synthetic.h"
#include "net/client.h"
#include "net/frame.h"

#include "../support/temp_dir.h"

namespace ufilter::net {
namespace {

constexpr int kDepth = 2;
constexpr int kRows = 16;

struct ServerProcess {
  pid_t pid = -1;
  uint16_t port = 0;       // request plane, from "READY <port>"
  uint16_t repl_port = 0;  // replication plane, from "REPL <port>" (if any)

  /// Forks the server binary with the given extra flags and parses its
  /// stdout banner: an optional "REPL <port>" line, then "READY <port>".
  static ServerProcess Launch(const char* bin,
                              const std::vector<std::string>& extra) {
    ServerProcess proc;
    int out[2];
    if (pipe(out) != 0) return proc;
    pid_t pid = fork();
    if (pid < 0) {
      close(out[0]);
      close(out[1]);
      return proc;
    }
    if (pid == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      std::vector<std::string> args;
      args.push_back(bin);
      args.push_back("--depth=" + std::to_string(kDepth));
      args.push_back("--rows=" + std::to_string(kRows));
      args.push_back("--workers=2");
      for (const std::string& flag : extra) args.push_back(flag);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(bin, argv.data());
      _exit(127);  // exec failed
    }
    close(out[1]);
    proc.pid = pid;
    // Read stdout lines until READY (or EOF on a failed start).
    std::string line;
    char c;
    while (read(out[0], &c, 1) == 1) {
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (line.rfind("REPL ", 0) == 0) {
        proc.repl_port = static_cast<uint16_t>(std::atoi(line.c_str() + 5));
      } else if (line.rfind("READY ", 0) == 0) {
        proc.port = static_cast<uint16_t>(std::atoi(line.c_str() + 6));
        break;
      }
      line.clear();
    }
    close(out[0]);
    return proc;
  }

  void Kill9() {
    kill(pid, SIGKILL);
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    pid = -1;
  }

  /// SIGTERM and expect a clean drain (exit 0).
  int Terminate() {
    kill(pid, SIGTERM);
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    pid = -1;
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  ~ServerProcess() {
    if (pid > 0) Kill9();
  }
};

uint64_t EpochOf(uint16_t port) {
  ClientOptions opts;
  opts.port = port;
  Client client(opts);
  auto scrape = client.Metrics();
  EXPECT_TRUE(scrape.ok()) << scrape.status().ToString();
  const WireMetric* epoch =
      scrape.ok() ? scrape->Find("db_commit_epoch") : nullptr;
  return epoch != nullptr ? epoch->value : 0;
}

/// Polls the follower's wire-visible commit epoch until it reaches the
/// target. Replication is asynchronous; this is the convergence barrier.
bool WaitForEpoch(uint16_t port, uint64_t target,
                  std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  ClientOptions opts;
  opts.port = port;
  Client client(opts);
  while (std::chrono::steady_clock::now() < deadline) {
    auto scrape = client.Metrics();
    const WireMetric* epoch =
        scrape.ok() ? scrape->Find("db_commit_epoch") : nullptr;
    if (epoch != nullptr && epoch->value >= target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(ReplicationCrashTest, FollowerSurvivesKill9AndResumesFromItsEpoch) {
  const char* bin = std::getenv("UFILTER_SERVER_BIN");
  if (bin == nullptr || *bin == '\0') {
    GTEST_SKIP() << "UFILTER_SERVER_BIN not set";
  }
  test_support::TempDir tmp("repl_crash");
  ASSERT_TRUE(tmp.ok());
  const std::string primary_wal = tmp.path("primary.wal");
  const std::string follower_wal = tmp.path("follower.wal");

  // --- Primary: durable, with a replication plane.
  ServerProcess primary = ServerProcess::Launch(
      bin, {"--wal=" + primary_wal, "--fsync=always", "--repl-port=0"});
  ASSERT_GT(primary.pid, 0);
  ASSERT_GT(primary.port, 0);
  ASSERT_GT(primary.repl_port, 0) << "no REPL banner from --repl-port=0";
  const std::string follow_flag =
      "--follow=127.0.0.1:" + std::to_string(primary.repl_port);

  // --- Follower: durable too, so a restart can resume from its own log.
  ServerProcess follower = ServerProcess::Launch(
      bin, {"--wal=" + follower_wal, "--fsync=always", follow_flag});
  ASSERT_GT(follower.pid, 0);
  ASSERT_GT(follower.port, 0);

  // Commit a first wave on the primary and let the follower catch up.
  {
    ClientOptions opts;
    opts.port = primary.port;
    Client writer(opts);
    for (int64_t key = 1; key <= 6; ++key) {
      auto resp = writer.Check(
          fixtures::ChainReplaceUpdate(1, key, "wave-one"), /*apply=*/true);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
    }
  }
  const uint64_t wave_one = EpochOf(primary.port);
  ASSERT_TRUE(WaitForEpoch(follower.port, wave_one, std::chrono::seconds(15)))
      << "follower never reached the primary's epoch " << wave_one;

  // --- kill -9 the follower; the primary keeps committing into the gap.
  follower.Kill9();
  {
    ClientOptions opts;
    opts.port = primary.port;
    Client writer(opts);
    for (int64_t key = 3; key <= 8; ++key) {
      auto resp = writer.Check(
          fixtures::ChainReplaceUpdate(1, key, "wave-two"), /*apply=*/true);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    }
    for (int64_t key = 7; key <= 8; ++key) {
      auto resp =
          writer.Check(fixtures::ChainDeleteUpdate(1, key), /*apply=*/true);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    }
  }
  const uint64_t wave_two = EpochOf(primary.port);
  ASSERT_GT(wave_two, wave_one);

  // --- Restart the follower on its own WAL: it recovers the epochs it had
  // re-logged, resumes the subscription from there, and closes the gap.
  ServerProcess revived = ServerProcess::Launch(
      bin, {"--wal=" + follower_wal, "--fsync=always", follow_flag});
  ASSERT_GT(revived.pid, 0);
  ASSERT_GT(revived.port, 0);
  // Resume, not reset: recovery alone already has wave one on board.
  EXPECT_GE(EpochOf(revived.port), wave_one)
      << "restart lost epochs the follower had durably applied";
  ASSERT_TRUE(WaitForEpoch(revived.port, wave_two, std::chrono::seconds(15)))
      << "revived follower never converged to epoch " << wave_two;

  // --- Verdict parity at the matched epoch: dry-run probes whose answers
  // depend on exactly which keys survived (replaced vs deleted) must agree
  // field-by-field between primary and revived follower.
  {
    ClientOptions popts;
    popts.port = primary.port;
    ClientOptions fopts;
    fopts.port = revived.port;
    Client on_primary(popts);
    Client on_follower(fopts);
    std::vector<std::string> probes;
    for (int64_t key = 1; key <= 8; ++key) {
      probes.push_back(fixtures::ChainReplaceUpdate(1, key, "probe"));
      probes.push_back(fixtures::ChainDeleteUpdate(1, key));
    }
    for (const std::string& update : probes) {
      auto want = on_primary.Check(update, /*apply=*/false);
      auto got = on_follower.Check(update, /*apply=*/false);
      ASSERT_TRUE(want.ok()) << update << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << update << ": " << got.status().ToString();
      EXPECT_EQ(got->verdict, want->verdict) << update;
      EXPECT_EQ(got->status_code, want->status_code) << update;
      EXPECT_EQ(got->rows_affected, want->rows_affected) << update;
    }

    // The follower is read-only: applies bounce with a redirect naming the
    // primary, and its epoch does not move.
    const uint64_t before = EpochOf(revived.port);
    auto redirect = on_follower.Check(
        fixtures::ChainReplaceUpdate(1, 1, "denied"), /*apply=*/true);
    ASSERT_TRUE(redirect.ok()) << redirect.status().ToString();
    EXPECT_EQ(redirect->verdict, Verdict::kRedirectToPrimary);
    EXPECT_NE(redirect->message.find(std::to_string(primary.repl_port)),
              std::string::npos)
        << redirect->message;
    EXPECT_EQ(EpochOf(revived.port), before);
  }

  // Clean shutdown on both ends: SIGTERM drains and exits 0.
  EXPECT_EQ(revived.Terminate(), 0);
  EXPECT_EQ(primary.Terminate(), 0);
}

}  // namespace
}  // namespace ufilter::net
