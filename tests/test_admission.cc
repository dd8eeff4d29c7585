// Unit tests for server::AdmissionController and FanOutBatch
// (src/server/admission.h), the overload policy both front ends share.
// The controller suites use no device and no timing race: every wait they
// provoke is released by the test itself or bounded by an explicit
// deadline. The front-end suite pins the admission lock traffic of a
// QueryServer / ShardRouter query and the router's accounting of a query
// whose budget dies in border refinement.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "server/admission.h"
#include "server/query_server.h"
#include "server/shard_router.h"
#include "util/lockdep.h"
#include "util/thread_pool.h"
#include "workload/synthetic_network.h"

namespace gknn::server {
namespace {

using util::Deadline;
using util::lockdep::kServerAdmissionClass;
using util::lockdep::ThreadAcquisitions;

/// Polls `done` (no deadline of its own: a hang here is a test failure
/// ctest's timeout reports).
template <typename Pred>
void WaitFor(Pred done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// --- AdmissionController ----------------------------------------------------

TEST(AdmissionControllerTest, OffModeCountsAdmittedAndKeepsTheGaugeHonest) {
  AdmissionController admission(/*max_inflight=*/0, /*max_queued=*/0,
                                /*brownout=*/true,
                                /*default_deadline_ms=*/0);
  {
    std::vector<AdmissionTicket> tickets;
    for (int i = 0; i < 5; ++i) tickets.push_back(admission.Admit(Deadline()));
    for (const AdmissionTicket& t : tickets) {
      EXPECT_TRUE(t.ok());
      // Off mode never queues, so its own brownout signal never fires.
      EXPECT_FALSE(t.brownout());
      EXPECT_EQ(t.waited_seconds(), 0.0);
    }
    EXPECT_EQ(admission.inflight(), 5u);
    EXPECT_EQ(admission.queued(), 0u);
  }
  EXPECT_EQ(admission.inflight(), 0u);
  const AdmissionController::Counts counts = admission.counts();
  EXPECT_EQ(counts.admitted, 5u);
  EXPECT_EQ(counts.shed, 0u);
  EXPECT_EQ(counts.expired, 0u);
  EXPECT_EQ(counts.brownout, 0u);
  EXPECT_TRUE(admission.DefaultDeadline().is_infinite());
}

TEST(AdmissionControllerTest, QueuesThenShedsTheNewestAtMaxQueued) {
  AdmissionController admission(1, 1, false, 0);
  std::optional<AdmissionTicket> slot;
  slot.emplace(admission.Admit(Deadline()));
  ASSERT_TRUE(slot->ok());

  std::atomic<bool> waiter_admitted{false};
  double waiter_waited = 0;
  std::thread waiter([&] {
    const AdmissionTicket t = admission.Admit(Deadline());
    EXPECT_TRUE(t.ok());
    waiter_waited = t.waited_seconds();
    waiter_admitted = true;
  });
  WaitFor([&] { return admission.queued() == 1; });

  // Slot busy and the one queue place taken: reject-newest.
  {
    const AdmissionTicket shed = admission.Admit(Deadline());
    EXPECT_TRUE(shed.status().IsResourceExhausted())
        << shed.status().ToString();
    EXPECT_FALSE(shed.brownout());
  }
  // A shed ticket held no slot, so destroying it released nothing.
  EXPECT_EQ(admission.inflight(), 1u);
  EXPECT_EQ(admission.queued(), 1u);
  EXPECT_FALSE(waiter_admitted);

  slot.reset();  // releases the slot and wakes the waiter
  waiter.join();
  EXPECT_TRUE(waiter_admitted);
  EXPECT_GT(waiter_waited, 0.0);
  EXPECT_EQ(admission.inflight(), 0u);
  EXPECT_EQ(admission.queued(), 0u);
  const AdmissionController::Counts counts = admission.counts();
  EXPECT_EQ(counts.admitted, 2u);
  EXPECT_EQ(counts.shed, 1u);
  EXPECT_EQ(counts.expired, 0u);
}

TEST(AdmissionControllerTest, NoWaitingRoomShedsImmediately) {
  AdmissionController admission(1, 0, false, 0);
  const AdmissionTicket held = admission.Admit(Deadline());
  ASSERT_TRUE(held.ok());
  const AdmissionTicket shed = admission.Admit(Deadline());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  EXPECT_EQ(admission.queued(), 0u);
  EXPECT_EQ(admission.counts().shed, 1u);
}

TEST(AdmissionControllerTest, DeadlineExpiresWhileQueued) {
  AdmissionController admission(1, 4, false, 0);
  const AdmissionTicket held = admission.Admit(Deadline());
  ASSERT_TRUE(held.ok());
  for (double budget : {-1.0, 0.02}) {
    const AdmissionTicket late =
        admission.Admit(Deadline::AfterSeconds(budget));
    EXPECT_TRUE(late.status().IsDeadlineExceeded())
        << late.status().ToString();
    // The expired waiter gave its queue place back.
    EXPECT_EQ(admission.queued(), 0u);
    EXPECT_EQ(admission.inflight(), 1u);
  }
  const AdmissionController::Counts counts = admission.counts();
  EXPECT_EQ(counts.admitted, 1u);
  EXPECT_EQ(counts.expired, 2u);
  EXPECT_EQ(counts.shed, 0u);
}

TEST(AdmissionControllerTest, BrownoutAboveHalfTheSlots) {
  AdmissionController admission(4, 4, true, 0);
  std::vector<AdmissionTicket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(admission.Admit(Deadline()));
  // inflight after admission: 1, 2, 3, 4 of 4 — pressure once past half.
  EXPECT_FALSE(tickets[0].brownout());
  EXPECT_FALSE(tickets[1].brownout());
  EXPECT_TRUE(tickets[2].brownout());
  EXPECT_TRUE(tickets[3].brownout());
  EXPECT_EQ(admission.counts().brownout, 2u);
}

TEST(AdmissionControllerTest, BrownoutAfterQueuingEvenBelowHalf) {
  AdmissionController admission(4, 1, true, 0);
  std::vector<std::optional<AdmissionTicket>> held(4);
  for (auto& t : held) t.emplace(admission.Admit(Deadline()));
  bool waiter_brownout = false;
  std::thread waiter([&] {
    const AdmissionTicket t = admission.Admit(Deadline());
    EXPECT_TRUE(t.ok());
    waiter_brownout = t.brownout();
  });
  WaitFor([&] { return admission.queued() == 1; });
  // Free three slots: the waiter is admitted at inflight 2 of 4, under
  // half — only its wait in the queue raises the bit.
  held[0].reset();
  held[1].reset();
  held[2].reset();
  waiter.join();
  EXPECT_TRUE(waiter_brownout);
}

TEST(AdmissionControllerTest, BrownoutPolicyOffIgnoresPressure) {
  AdmissionController admission(1, 1, false, 0);
  const AdmissionTicket t = admission.Admit(Deadline());
  EXPECT_FALSE(t.brownout());
  EXPECT_EQ(admission.counts().brownout, 0u);
}

TEST(AdmissionControllerTest, ExternalPressureSetsAndCountsTheBit) {
  AdmissionController admission(0, 0, false, 0);
  {
    const AdmissionTicket t =
        admission.Admit(Deadline(), /*external_pressure=*/true);
    EXPECT_TRUE(t.brownout());
  }
  EXPECT_EQ(admission.counts().brownout, 1u);
}

TEST(AdmissionControllerTest, MovedTicketReleasesExactlyOnce) {
  AdmissionController admission(2, 0, false, 0);
  std::optional<AdmissionTicket> from;
  from.emplace(admission.Admit(Deadline()));
  std::optional<AdmissionTicket> to;
  to.emplace(std::move(*from));
  EXPECT_TRUE(to->ok());
  EXPECT_EQ(admission.inflight(), 1u);
  from.reset();  // moved-from: holds nothing
  EXPECT_EQ(admission.inflight(), 1u);
  to.reset();
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(AdmissionControllerTest, CountFinishedCountsOnlyDeadlines) {
  AdmissionController admission(0, 0, false, 0);
  admission.CountFinished(util::Status::OK());
  admission.CountFinished(util::Status::Internal("device lost"));
  EXPECT_EQ(admission.counts().expired, 0u);
  admission.CountFinished(util::Status::DeadlineExceeded("late"));
  EXPECT_EQ(admission.counts().expired, 1u);
}

TEST(AdmissionControllerTest, DefaultDeadlineFollowsTheBudget) {
  AdmissionController admission(0, 0, false, 60000);
  const Deadline d = admission.DefaultDeadline();
  EXPECT_FALSE(d.is_infinite());
  EXPECT_GT(d.RemainingSeconds(), 59.0);
}

TEST(AdmissionControllerTest, AdmitAndReleaseTakeTheLockTwice) {
  if (!util::lockdep::kEnabled) GTEST_SKIP() << "lockdep compiled out";
  for (uint32_t max_inflight : {0u, 4u}) {
    AdmissionController admission(max_inflight, 4, true, 0);
    const uint64_t before = ThreadAcquisitions(kServerAdmissionClass);
    { const AdmissionTicket t = admission.Admit(Deadline()); }
    EXPECT_EQ(ThreadAcquisitions(kServerAdmissionClass) - before, 2u)
        << "max_inflight=" << max_inflight;
  }
}

// --- FanOutBatch --------------------------------------------------------------

TEST(FanOutBatchTest, RunsEveryIndexAndReturnsTheFirstError) {
  AdmissionController admission(0, 0, false, 0);
  util::ThreadPool pool(util::ThreadPool::Inline{});
  std::vector<int> ran(4, 0);
  const util::Status status =
      FanOutBatch(pool, admission, Deadline(), ran.size(), [&](size_t i) {
        ++ran[i];
        if (i >= 2) {
          return util::Status::InvalidArgument("bad " + std::to_string(i));
        }
        return util::Status::OK();
      });
  EXPECT_EQ(ran, std::vector<int>(4, 1));
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "bad 2");
}

TEST(FanOutBatchTest, ExpiredBudgetInTheQueueCountsExpired) {
  AdmissionController admission(0, 0, false, 0);
  util::ThreadPool pool(util::ThreadPool::Inline{});
  int ran = 0;
  const util::Status status =
      FanOutBatch(pool, admission, Deadline::AfterSeconds(-1), 3,
                  [&](size_t) {
                    ++ran;
                    return util::Status::OK();
                  });
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(admission.counts().expired, 3u);
}

TEST(FanOutBatchTest, FullPoolQueueShedsWithoutBlocking) {
  AdmissionController admission(0, 0, false, 0);
  util::ThreadPool pool(/*num_threads=*/1, /*max_queued=*/1);
  // Occupy the only worker so the queue holds exactly one task.
  std::atomic<bool> release{false};
  pool.Submit([&] { WaitFor([&] { return release.load(); }); });
  WaitFor([&] { return pool.queued() == 0; });
  std::thread releaser([&] {
    WaitFor([&] { return admission.counts().shed == 2; });
    release = true;
  });
  std::vector<int> ran(3, 0);
  const util::Status status =
      FanOutBatch(pool, admission, Deadline(), ran.size(), [&](size_t i) {
        ++ran[i];
        return util::Status::OK();
      });
  releaser.join();
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_EQ(ran, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(admission.counts().shed, 2u);
}

// --- The front ends ---------------------------------------------------------

roadnet::Graph MakeGraph(uint32_t vertices, uint64_t seed) {
  return std::move(workload::GenerateSyntheticRoadNetwork(
                       {.num_vertices = vertices, .seed = seed}))
      .ValueOrDie();
}

// One admitted query costs two server.admission acquisitions (admit,
// release) per admission decision: one on a QueryServer, two on a
// single-shard ShardRouter (the router's gate and the shard's off-mode
// gauge). The shared controller adds none.
TEST(FrontEndAdmissionTest, AdmissionLockTrafficPerQuery) {
  if (!util::lockdep::kEnabled) GTEST_SKIP() << "lockdep compiled out";
  const roadnet::Graph graph = MakeGraph(200, 3);
  gpusim::Device device;
  auto server = std::move(QueryServer::Create(&graph, core::GGridOptions{},
                                              &device))
                    .ValueOrDie();
  ShardRouterOptions router_options;
  router_options.num_shards = 1;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              router_options))
                    .ValueOrDie();
  for (uint32_t o = 0; o < 16; ++o) {
    server->Report(o, {o % graph.num_edges(), 0}, 1.0);
    router->Report(o, {o % graph.num_edges(), 0}, 1.0);
  }
  ASSERT_TRUE(server->QueryKnn({0, 0}, 4, 1.5).ok());  // drain the inbox
  ASSERT_TRUE(router->QueryKnn({0, 0}, 4, 1.5).ok());

  uint64_t before = ThreadAcquisitions(kServerAdmissionClass);
  ASSERT_TRUE(server->QueryKnn({1, 0}, 4, 2.0).ok());
  EXPECT_EQ(ThreadAcquisitions(kServerAdmissionClass) - before, 2u);

  before = ThreadAcquisitions(kServerAdmissionClass);
  ASSERT_TRUE(router->QueryKnn({1, 0}, 4, 2.0).ok());
  EXPECT_EQ(ThreadAcquisitions(kServerAdmissionClass) - before, 4u);
}

// A query whose budget runs out after phase 2 ends in the border
// refinement's cancelled Dijkstra. It must count as expired at the router
// like every other DeadlineExceeded exit. The budget is made to expire
// there, not earlier: a helper holds the home shard's trace-ring lock,
// which the engine takes only after its last budget checkpoint, until the
// budget is gone.
TEST(FrontEndAdmissionTest, RouterCountsAQueryExpiredInBorderRefinement) {
  if (!obs::kEnabled) GTEST_SKIP() << "needs the tracer (GKNN_OBS=ON)";
  constexpr double kBudgetMs = 200;
  const roadnet::Graph graph = MakeGraph(800, 5);
  ShardRouterOptions router_options;
  router_options.num_shards = 2;
  router_options.fanout_rho = 1.0;  // phase 1 stops at the home shard
  router_options.server.default_deadline_ms = kBudgetMs;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              router_options))
                    .ValueOrDie();
  // Objects only in the home shard, spread over it, and k = all of them:
  // the merged kth distance reaches across the shard, so the refinement
  // Dijkstra settles well past its 64-vertex deadline poll.
  const roadnet::EdgePoint location{0, 0};
  const uint32_t home = router->ShardOfPoint(location);
  uint32_t k = 0;
  for (roadnet::EdgeId e = 0; e < graph.num_edges(); e += 7) {
    if (router->ShardOfPoint({e, 0}) != home) continue;
    router->Report(k++, {e, 0}, 1.0);
  }
  ASSERT_GE(k, 8u);
  // Drains the inbox and leaves a record in the home shard's trace ring.
  ASSERT_TRUE(router->QueryKnn(location, k, 1.5).ok());
  const RouterStats warm = router->router_stats();
  ASSERT_EQ(warm.expired_queries, 0u);

  std::atomic<bool> holding{false};
  std::thread holder([&] {
    router->shard(home).index().tracer().AnnotateLast(
        [&](obs::QueryTraceRecord&) {
          holding = true;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(static_cast<int>(5 * kBudgetMs)));
        });
  });
  WaitFor([&] { return holding.load(); });
  auto result = router->QueryKnn(location, k, 2.0);
  holder.join();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // The home shard answered (its own budget checks all passed) ...
  EXPECT_EQ(router->ShardStats(home).expired_queries, 0u);
  // ... and the router still counted the logical query as expired.
  const RouterStats stats = router->router_stats();
  EXPECT_EQ(stats.expired_queries, 1u);
  EXPECT_EQ(stats.admitted_queries, 2u);
  EXPECT_EQ(stats.border_refinements, warm.border_refinements);
}

}  // namespace
}  // namespace gknn::server
