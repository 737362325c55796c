// One client of the check service. A session owns the per-client mutable
// scratch — its relational::ExecutionContext (temp tables, undo log).
// Everything heavyweight (the compiled view, the plan cache, the base
// tables) is shared across sessions; a session is cheap enough to open per
// connection.
#ifndef UFILTER_SERVICE_SESSION_H_
#define UFILTER_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "relational/database.h"

namespace ufilter::service {

class Session {
 public:
  Session(uint64_t id, std::string name,
          std::unique_ptr<relational::ExecutionContext> ctx)
      : id_(id), name_(std::move(name)), ctx_(std::move(ctx)) {}

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// The session's scratch. The service serializes all processing of one
  /// session's requests via processing_mutex() (the context carries the
  /// per-request snapshot pin and the writer lane mutates its temp tables /
  /// undo log, so two workers must never run the same session at once);
  /// direct use outside the service must be externally synchronized.
  relational::ExecutionContext* context() { return ctx_.get(); }

  /// Held by a worker for the whole processing of one of this session's
  /// requests. Requests of *different* sessions stay fully concurrent.
  std::mutex& processing_mutex() { return processing_mu_; }

 private:
  const uint64_t id_;
  const std::string name_;
  std::unique_ptr<relational::ExecutionContext> ctx_;
  std::mutex processing_mu_;
};

}  // namespace ufilter::service

#endif  // UFILTER_SERVICE_SESSION_H_
