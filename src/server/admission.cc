#include "server/admission.h"

#include <future>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace gknn::server {

AdmissionTicket::AdmissionTicket(AdmissionTicket&& other) noexcept
    : holder_(std::exchange(other.holder_, nullptr)),
      status_(std::move(other.status_)),
      brownout_(other.brownout_),
      waited_seconds_(other.waited_seconds_) {}

AdmissionTicket::~AdmissionTicket() {
  if (holder_ != nullptr) holder_->Release();
}

AdmissionController::AdmissionController(uint32_t max_inflight,
                                         uint32_t max_queued, bool brownout,
                                         double default_deadline_ms)
    : max_inflight_(max_inflight),
      max_queued_(max_queued),
      brownout_(brownout),
      default_deadline_ms_(default_deadline_ms) {}

AdmissionTicket AdmissionController::Admit(const util::Deadline& deadline,
                                           bool external_pressure) {
  AdmissionTicket out;
  bool waited = false;
  if (max_inflight_ == 0) {
    // Admission control off: no queue, no shedding; keep the inflight
    // gauge honest anyway.
    util::lockdep::MutexLock lock(mu_);
    ++inflight_;
  } else {
    util::Timer wait_timer;
    util::lockdep::UniqueLock lock(mu_);
    while (inflight_ >= max_inflight_) {
      if (!waited) {
        if (queued_ >= max_queued_) {
          // Reject-newest: the arrival is shed, everyone already waiting
          // keeps its place — FIFO fairness for the admitted backlog.
          out.status_ = util::Status::ResourceExhausted(
              "admission queue full (" + std::to_string(queued_) +
              " waiting, " + std::to_string(inflight_) + " inflight)");
          shed_.fetch_add(1, std::memory_order_relaxed);
          return out;
        }
        ++queued_;
        waited = true;
      }
      if (deadline.is_infinite()) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, deadline.time_point());
        if (inflight_ >= max_inflight_ && deadline.Expired()) {
          --queued_;
          out.status_ = util::Status::DeadlineExceeded(
              "deadline expired waiting for an execution slot");
          expired_.fetch_add(1, std::memory_order_relaxed);
          return out;
        }
      }
    }
    if (waited) --queued_;
    ++inflight_;
    // Brownout pressure signal: this query had to queue, or admission is
    // past half capacity — degrade before the queue fills and sheds.
    out.brownout_ = brownout_ && (waited || inflight_ * 2 > max_inflight_);
    out.waited_seconds_ = waited ? wait_timer.ElapsedSeconds() : 0.0;
  }
  out.holder_ = this;
  out.brownout_ = out.brownout_ || external_pressure;
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (out.brownout_) brownout_count_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void AdmissionController::Release() {
  {
    util::lockdep::MutexLock lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

void AdmissionController::CountFinished(const util::Status& status) {
  if (status.IsDeadlineExceeded()) CountExpired();
}

util::Deadline AdmissionController::DefaultDeadline() const {
  return default_deadline_ms_ > 0
             ? util::Deadline::AfterSeconds(default_deadline_ms_ * 1e-3)
             : util::Deadline();
}

uint32_t AdmissionController::inflight() const {
  util::lockdep::MutexLock lock(mu_);
  return inflight_;
}

uint32_t AdmissionController::queued() const {
  util::lockdep::MutexLock lock(mu_);
  return queued_;
}

AdmissionController::Counts AdmissionController::counts() const {
  Counts out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.expired = expired_.load(std::memory_order_relaxed);
  out.brownout = brownout_count_.load(std::memory_order_relaxed);
  return out;
}

util::Status FanOutBatch(util::ThreadPool& pool,
                         AdmissionController& admission,
                         const util::Deadline& deadline, size_t n,
                         const std::function<util::Status(size_t)>& run_one) {
  std::vector<util::Status> statuses(n, util::Status::OK());
  std::vector<std::future<void>> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::ThreadPool::Submission submission;
    submission.deadline = deadline;
    submission.run = [&statuses, &run_one, i] { statuses[i] = run_one(i); };
    submission.on_expired = [&statuses, &admission, i] {
      // The budget died while the task sat in the pool queue; the pool
      // dropped it before it took any lock.
      admission.CountExpired();
      statuses[i] = util::Status::DeadlineExceeded(
          "query budget exhausted in the batch queue");
    };
    std::optional<std::future<void>> task =
        pool.TrySubmitTask(std::move(submission));
    if (!task.has_value()) {
      // Bounded pool queue full (ServerOptions::max_queued): shed this
      // query, typed, without blocking the submitter.
      admission.CountShed();
      statuses[i] =
          util::Status::ResourceExhausted("batch query pool queue full");
      continue;
    }
    tasks.push_back(std::move(*task));
  }
  // get() (not wait()) so an exception escaping a task — impossible for
  // the query paths, which report through Status — still reaches the
  // caller instead of being swallowed.
  for (std::future<void>& task : tasks) task.get();
  for (util::Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return util::Status::OK();
}

}  // namespace gknn::server
