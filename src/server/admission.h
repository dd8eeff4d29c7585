#ifndef GKNN_SERVER_ADMISSION_H_
#define GKNN_SERVER_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gknn::server {

class AdmissionController;

/// One admission decision (docs/ROBUSTNESS.md "Overload control"). While
/// ok() the ticket holds an execution slot; destroying it returns the
/// slot, so every exit of an admitted query releases exactly once.
/// Move-only: a moved-from ticket holds nothing.
class AdmissionTicket {
 public:
  AdmissionTicket(AdmissionTicket&& other) noexcept;
  AdmissionTicket& operator=(AdmissionTicket&&) = delete;
  ~AdmissionTicket();

  bool ok() const { return status_.ok(); }
  /// OK = slot granted; ResourceExhausted = shed; DeadlineExceeded = the
  /// budget ran out while queued.
  const util::Status& status() const { return status_; }
  /// Degrade this query: admission pressure was observed here or above.
  bool brownout() const { return brownout_; }
  /// Time spent queued for the slot (0 when admitted at once).
  double waited_seconds() const { return waited_seconds_; }

 private:
  friend class AdmissionController;
  AdmissionTicket() = default;

  AdmissionController* holder_ = nullptr;  // non-null while a slot is held
  util::Status status_ = util::Status::OK();
  bool brownout_ = false;
  double waited_seconds_ = 0;
};

/// The overload policy both front ends (QueryServer, ShardRouter) put in
/// front of a query: `max_inflight` execution slots, a bounded wait queue
/// of `max_queued` with reject-newest shedding, a deadline-bounded wait,
/// and the brownout pressure signal. Every query it sees ends in exactly
/// one of its buckets: admitted (then OK or its own error), shed, or
/// expired (DeadlineExceeded while queued, in a batch queue, or
/// mid-execution via CountFinished).
///
/// With max_inflight == 0 admission is off: Admit never waits or sheds,
/// but still counts the query and keeps the inflight gauge honest.
///
/// The slot state sits under one `server.admission` leaf mutex (rank 902,
/// docs/CONCURRENCY.md): nothing else is acquired under it and the
/// condvar wait releases it, so a blocked admitter holds nothing. An
/// admitted query takes it twice — admit and release.
class AdmissionController {
 public:
  struct Counts {
    uint64_t admitted = 0;  // granted an execution slot
    uint64_t shed = 0;      // rejected: a queue was full
    uint64_t expired = 0;   // ended DeadlineExceeded
    uint64_t brownout = 0;  // admitted with the brownout bit set
  };

  AdmissionController(uint32_t max_inflight, uint32_t max_queued,
                      bool brownout, double default_deadline_ms);

  /// Takes (or waits for) an execution slot. Sets the ticket's brownout
  /// bit when this controller's brownout policy sees pressure (the query
  /// queued, or more than half the slots are busy) or when the caller
  /// already observed pressure above this front end (`external_pressure`).
  AdmissionTicket Admit(const util::Deadline& deadline,
                        bool external_pressure = false);

  /// Accounts how an admitted query ended: DeadlineExceeded counts it
  /// expired. Call once per admitted query, on every exit.
  void CountFinished(const util::Status& status);
  /// A query that never reached Admit: its budget died in a batch queue
  /// (expired) or the batch queue was full (shed).
  void CountExpired() { expired_.fetch_add(1, std::memory_order_relaxed); }
  void CountShed() { shed_.fetch_add(1, std::memory_order_relaxed); }

  /// The per-query budget from default_deadline_ms (0 = unlimited).
  util::Deadline DefaultDeadline() const;

  /// Queries holding a slot / arrivals waiting for one.
  uint32_t inflight() const;
  uint32_t queued() const;
  /// Relaxed snapshot: each counter is exact, not mutually consistent.
  Counts counts() const;

 private:
  friend class AdmissionTicket;
  void Release();

  const uint32_t max_inflight_;
  const uint32_t max_queued_;
  const bool brownout_;
  const double default_deadline_ms_;

  mutable util::lockdep::Mutex mu_{util::lockdep::kServerAdmissionClass};
  std::condition_variable_any cv_;
  uint32_t inflight_ = 0;  // guarded by mu_
  uint32_t queued_ = 0;    // guarded by mu_

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> brownout_count_{0};
};

/// The batch fan-out both front ends share: submits run_one(0..n-1) to
/// `pool`, each task carrying `deadline`. A task whose budget dies in the
/// pool queue ends DeadlineExceeded and counts expired; a full pool queue
/// sheds the task (ResourceExhausted, counted shed) without blocking the
/// submitter. Waits for every task, then returns the first non-OK status
/// in index order. run_one runs the whole query (its own admission
/// included) and reports through its Status.
util::Status FanOutBatch(util::ThreadPool& pool,
                         AdmissionController& admission,
                         const util::Deadline& deadline, size_t n,
                         const std::function<util::Status(size_t)>& run_one);

}  // namespace gknn::server

#endif  // GKNN_SERVER_ADMISSION_H_
