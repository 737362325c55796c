#include "server.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "fixtures/tpch_views.h"
#include "net/client.h"
#include "net/server.h"
#include "relational/tpch.h"
#include "relational/wal.h"

namespace perfbench {

using ufilter::Result;
using ufilter::Status;

void RemoveWorkDir(const std::string& dir) {
  for (const char* name : {"/wal", "/checkpoint", "/checkpoint.tmp"}) {
    ::unlink((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

Result<Fixture> MakeFixture(const std::string& dir) {
  RemoveWorkDir(dir);
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return Status::Internal("cannot create " + dir + ": " +
                            std::strerror(errno));
  }
  Fixture f;
  ufilter::relational::tpch::TpchOptions topts;
  topts.scale = kScale;
  UFILTER_ASSIGN_OR_RETURN(f.db,
                           ufilter::relational::tpch::MakeDatabase(topts));
  ufilter::relational::DurabilityOptions dopts;
  dopts.wal_path = dir + "/wal";
  dopts.checkpoint_path = dir + "/checkpoint";
  dopts.fsync_policy = ufilter::relational::FsyncPolicy::kGroup;
  UFILTER_RETURN_NOT_OK(f.db->EnableDurability(dopts));
  // The rows predate the log, so a checkpoint is their durable seed.
  UFILTER_RETURN_NOT_OK(f.db->WriteCheckpoint(dopts.checkpoint_path).status());
  UFILTER_ASSIGN_OR_RETURN(
      f.filter, ufilter::check::UFilter::Create(
                    f.db.get(), ufilter::fixtures::VFailQuery("region")));
  return f;
}

ufilter::service::CheckServiceOptions ServiceOptions() {
  ufilter::service::CheckServiceOptions o;
  o.worker_threads = 2;
  o.queue_capacity = 256;
  o.trace.sample_every = 64;
  return o;
}

int ServeMain(const std::string& dir) {
  // Block the shutdown signals in every thread the server spawns; this
  // thread collects them with sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  auto fixture = MakeFixture(dir);
  if (!fixture.ok()) {
    std::fprintf(stderr, "serve: %s\n", fixture.status().ToString().c_str());
    return 1;
  }
  ufilter::net::ServerOptions sopts;
  sopts.service = ServiceOptions();
  auto server = ufilter::net::Server::Start(fixture->filter.get(), sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("READY %u\n", static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  int sig = 0;
  sigwait(&sigs, &sig);
  (*server)->Drain();
  return 0;
}

namespace {

/// Reads one line from `fd` within `timeout_ms`; false on EOF or timeout.
bool ReadLine(int fd, int timeout_ms, std::string* line) {
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  line->clear();
  while (true) {
    int left_ms = static_cast<int>((deadline - NowNs()) / 1000000);
    if (left_ms <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    int r = ::poll(&p, 1, left_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char c = 0;
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const std::string& exe, const std::string& dir, const cpu_set_t& cpus) {
  RemoveWorkDir(dir);
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return Status::Internal("cannot create " + dir + ": " +
                            std::strerror(errno));
  }
  int out[2];
  if (::pipe(out) != 0) return Status::Internal("pipe failed");
  pid_t parent = ::getpid();
  int64_t t0 = NowNs();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // The server must not outlive the load generator.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    (void)sched_setaffinity(0, sizeof cpus, &cpus);
    const char* argv[] = {exe.c_str(), "serve", "--dir", dir.c_str(),
                          nullptr};
    ::execv(exe.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, dir));
  std::string line;
  bool ready = ReadLine(out[0], 60000, &line);
  ::close(out[0]);
  if (!ready || line.rfind("READY ", 0) != 0) {
    return Status::Unavailable("server did not start: '" + line + "'");
  }
  proc->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 6));
  ufilter::net::ClientOptions copts;
  copts.port = proc->port_;
  copts.max_attempts = 1;
  ufilter::net::Client client(copts);
  Status ping = Status::Unavailable("no ping");
  for (int i = 0; i < 200 && !ping.ok(); ++i) {
    ping = client.Ping();
    if (!ping.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!ping.ok()) return ping;
  proc->setup_seconds_ = static_cast<double>(NowNs() - t0) * 1e-9;
  return proc;
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 2000; ++i) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      exited = r == pid_;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  RemoveWorkDir(dir_);
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

Result<ufilter::net::MetricsMsg> Scrape(uint16_t port) {
  ufilter::net::ClientOptions copts;
  copts.port = port;
  copts.request_timeout = std::chrono::milliseconds(30000);
  ufilter::net::Client client(copts);
  return client.Metrics();
}

double Value(const ufilter::net::MetricsMsg& m, const std::string& name) {
  const ufilter::net::WireMetric* w = m.Find(name);
  return w == nullptr ? 0 : static_cast<double>(w->value);
}

}  // namespace perfbench
