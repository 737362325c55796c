// The server under test: the TPC-H database at scale 4 behind
// Vfail(region), hosted by the public net::Server with ufilter_server's
// defaults, in a process of its own.
#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sched.h>
#include <sys/types.h>

#include <memory>
#include <string>

#include "common/result.h"
#include "net/frame.h"
#include "relational/database.h"
#include "service/check_service.h"
#include "ufilter/checker.h"

namespace perfbench {

/// A freshly seeded database and its compiled view. `dir` is created anew
/// and receives the WAL (fsync=group) and the seed checkpoint.
struct Fixture {
  std::unique_ptr<ufilter::relational::Database> db;
  std::unique_ptr<ufilter::check::UFilter> filter;
};
ufilter::Result<Fixture> MakeFixture(const std::string& dir);
/// Deletes what a fixture left in `dir`, and `dir` itself.
void RemoveWorkDir(const std::string& dir);

/// ufilter_server's service defaults: 2 workers, a 256-deep admission
/// queue, one full trace sampled per 64 requests.
ufilter::service::CheckServiceOptions ServiceOptions();

/// `perfbench serve`: builds the fixture in `dir`, serves it on an
/// ephemeral port, prints "READY <port>" and drains on SIGTERM.
int ServeMain(const std::string& dir);

/// A server process launched from this binary. Stops it on destruction.
class ServerProcess {
 public:
  /// Launches `exe serve` pinned to `cpus` and waits for the first answered
  /// Ping; setup_seconds() is the time from launch until then.
  static ufilter::Result<std::unique_ptr<ServerProcess>> Launch(
      const std::string& exe, const std::string& dir, const cpu_set_t& cpus);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  double setup_seconds() const { return setup_seconds_; }
  /// utime + stime of the process so far, in seconds.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM), in MiB.
  double PeakRssMb() const;
  /// SIGTERM, then waits for the graceful drain (SIGKILL after 20 s).
  /// True when the process exited 0. Removes the process's directory.
  bool Stop();

 private:
  ServerProcess(pid_t pid, std::string dir) : pid_(pid), dir_(std::move(dir)) {}

  pid_t pid_;
  std::string dir_;
  uint16_t port_ = 0;
  double setup_seconds_ = 0;
};

/// One scrape of the server's metric registry over the wire.
ufilter::Result<ufilter::net::MetricsMsg> Scrape(uint16_t port);
/// A counter or gauge of a scrape (0 when absent).
double Value(const ufilter::net::MetricsMsg& m, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
