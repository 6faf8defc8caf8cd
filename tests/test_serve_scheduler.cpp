// PointScheduler contract tests: every submitted task runs exactly once,
// work is stolen across workers, the Interactive lane preempts Bulk at
// task granularity, and stop() drops queued work without stranding
// waiters. All ordering assertions use explicit gates (promises/latches),
// never sleeps, so they hold under every thread interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"

using namespace rnoc::serve;

namespace {

std::vector<std::function<void()>> counting_tasks(std::atomic<int>& counter,
                                                  int n) {
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < n; ++i)
    tasks.push_back([&counter] { counter.fetch_add(1); });
  return tasks;
}

}  // namespace

TEST(ServeScheduler, LaneNamesRoundTrip) {
  EXPECT_STREQ(lane_name(Lane::Interactive), "interactive");
  EXPECT_STREQ(lane_name(Lane::Bulk), "bulk");
  EXPECT_EQ(lane_from_name("interactive"), Lane::Interactive);
  EXPECT_EQ(lane_from_name("bulk"), Lane::Bulk);
  EXPECT_THROW(lane_from_name("turbo"), std::invalid_argument);
}

TEST(ServeScheduler, RunsEveryTaskExactlyOnce) {
  PointScheduler sched(4);
  EXPECT_EQ(sched.workers(), 4u);
  std::atomic<int> ran{0};
  const std::uint64_t job = sched.submit(Lane::Bulk, counting_tasks(ran, 64));
  ASSERT_NE(job, 0u);
  sched.wait(job);
  EXPECT_TRUE(sched.finished(job));
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(sched.stats().executed, 64u);
  EXPECT_EQ(sched.stats().dropped, 0u);
}

TEST(ServeScheduler, ManyConcurrentJobsAllComplete) {
  PointScheduler sched(3);
  std::atomic<int> ran{0};
  std::vector<std::uint64_t> jobs;
  for (int j = 0; j < 10; ++j)
    jobs.push_back(sched.submit(j % 2 == 0 ? Lane::Interactive : Lane::Bulk,
                                counting_tasks(ran, 7)));
  for (const std::uint64_t job : jobs) sched.wait(job);
  EXPECT_EQ(ran.load(), 70);
}

TEST(ServeScheduler, UnknownAndEmptyJobsAreTrivial) {
  PointScheduler sched(1);
  EXPECT_EQ(sched.submit(Lane::Bulk, {}), 0u);
  sched.wait(0);  // Must return immediately.
  EXPECT_TRUE(sched.finished(0));
  EXPECT_TRUE(sched.finished(12345));
}

// Two workers, four tasks dealt round-robin (two per deque). Task 0 (on
// worker A's deque) blocks until the other three have run — which is only
// possible if some worker stole across deques, since A is stuck behind
// task 0 and B's own deque holds just two of the remaining three.
TEST(ServeScheduler, StealsAcrossWorkerDeques) {
  PointScheduler sched(2);
  std::promise<void> release;
  const std::shared_future<void> released(release.get_future());
  std::atomic<int> others{0};

  std::vector<std::function<void()>> tasks;
  tasks.push_back([released] { released.wait(); });
  for (int i = 0; i < 3; ++i)
    tasks.push_back([&others] { others.fetch_add(1); });
  const std::uint64_t job = sched.submit(Lane::Bulk, std::move(tasks));

  // All three unblocked tasks finish while task 0 still holds one worker.
  while (others.load() < 3) std::this_thread::yield();
  release.set_value();
  sched.wait(job);
  EXPECT_GE(sched.stats().steals, 1u);
  EXPECT_EQ(sched.stats().executed, 4u);
}

// One worker: the first bulk task blocks until an interactive job has been
// submitted behind it. The worker must then run the interactive task
// before the remaining queued bulk tasks.
TEST(ServeScheduler, InteractivePreemptsQueuedBulk) {
  PointScheduler sched(1);
  std::promise<void> interactive_submitted;
  const std::shared_future<void> gate(interactive_submitted.get_future());

  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](const std::string& tag) {
    const std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };

  std::atomic<bool> b0_started{false};
  std::vector<std::function<void()>> bulk;
  bulk.push_back([&record, &b0_started, gate] {
    record("b0");
    b0_started.store(true);
    gate.wait();
  });
  bulk.push_back([&record] { record("b1"); });
  bulk.push_back([&record] { record("b2"); });
  const std::uint64_t bulk_job = sched.submit(Lane::Bulk, std::move(bulk));
  // Only submit interactive work once the worker is pinned inside b0 —
  // otherwise it could legitimately run i0 first.
  while (!b0_started.load()) std::this_thread::yield();

  std::vector<std::function<void()>> inter;
  inter.push_back([&record] { record("i0"); });
  const std::uint64_t inter_job = sched.submit(Lane::Interactive,
                                               std::move(inter));
  interactive_submitted.set_value();

  sched.wait(bulk_job);
  sched.wait(inter_job);
  const std::vector<std::string> expected = {"b0", "i0", "b1", "b2"};
  EXPECT_EQ(order, expected);
}

// Same two-worker steal setup as above, but directed at the contention
// counters: the stealing worker's own deque is empty when it probes its
// peer, so every steal is preceded by at least one counted attempt (an
// attempt is a probe, not a success — attempts can exceed steals when a
// probe finds the victim's deque already drained).
TEST(ServeScheduler, CountsStealAttemptsWhenOwnDequeRunsDry) {
  PointScheduler sched(2);
  std::promise<void> release;
  const std::shared_future<void> released(release.get_future());
  std::atomic<int> others{0};

  std::vector<std::function<void()>> tasks;
  tasks.push_back([released] { released.wait(); });
  for (int i = 0; i < 3; ++i)
    tasks.push_back([&others] { others.fetch_add(1); });
  const std::uint64_t job = sched.submit(Lane::Bulk, std::move(tasks));

  while (others.load() < 3) std::this_thread::yield();
  release.set_value();
  sched.wait(job);
  const PointScheduler::Stats s = sched.stats();
  EXPECT_GE(s.steals, 1u);
  EXPECT_GE(s.steal_attempts, s.steals);
}

// One worker pinned inside b0 with bulk work queued behind it; an
// interactive task submitted meanwhile must be claimed ahead of that
// queued bulk work, and that claim is exactly one counted preemption.
TEST(ServeScheduler, CountsPreemptionsUnderLaneContention) {
  PointScheduler sched(1);
  std::promise<void> interactive_submitted;
  const std::shared_future<void> gate(interactive_submitted.get_future());
  std::atomic<bool> b0_started{false};

  std::vector<std::function<void()>> bulk;
  bulk.push_back([&b0_started, gate] {
    b0_started.store(true);
    gate.wait();
  });
  bulk.push_back([] {});
  bulk.push_back([] {});
  const std::uint64_t bulk_job = sched.submit(Lane::Bulk, std::move(bulk));
  while (!b0_started.load()) std::this_thread::yield();

  std::vector<std::function<void()>> inter;
  inter.push_back([] {});
  const std::uint64_t inter_job =
      sched.submit(Lane::Interactive, std::move(inter));
  interactive_submitted.set_value();

  sched.wait(bulk_job);
  sched.wait(inter_job);
  EXPECT_EQ(sched.stats().preemptions, 1u);
  // A bulk-only run has nothing to preempt.
  EXPECT_EQ(sched.stats().executed, 4u);
}

TEST(ServeScheduler, QueueDepthReflectsPendingWork) {
  PointScheduler sched(1);
  std::promise<void> release;
  const std::shared_future<void> released(release.get_future());
  std::atomic<bool> started{false};

  std::vector<std::function<void()>> tasks;
  tasks.push_back([&started, released] {
    started.store(true);
    released.wait();
  });
  tasks.push_back([] {});
  tasks.push_back([] {});
  const std::uint64_t job = sched.submit(Lane::Bulk, std::move(tasks));
  while (!started.load()) std::this_thread::yield();

  // The pinned task has been claimed; exactly the other two are pending.
  EXPECT_EQ(sched.queue_depth(Lane::Bulk), 2u);
  EXPECT_EQ(sched.queue_depth(Lane::Interactive), 0u);
  release.set_value();
  sched.wait(job);
  EXPECT_EQ(sched.queue_depth(Lane::Bulk), 0u);
}

TEST(ServeScheduler, StopDropsQueuedWorkWithoutStrandingWaiters) {
  PointScheduler sched(1);
  std::promise<void> release;
  const std::shared_future<void> released(release.get_future());
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};

  std::vector<std::function<void()>> tasks;
  tasks.push_back([&started, released] {
    started.store(true);
    released.wait();
  });
  for (int i = 0; i < 5; ++i)
    tasks.push_back([&ran] { ran.fetch_add(1); });
  const std::uint64_t job = sched.submit(Lane::Bulk, std::move(tasks));

  while (!started.load()) std::this_thread::yield();
  // Stop from another thread while the first task pins the only worker;
  // the five queued tasks must be dropped, and wait() must still return.
  // Release the pinned task only after stop() has drained the deques
  // (visible via the dropped counter, which it bumps before joining) —
  // otherwise the worker could legitimately run the queued tasks first.
  std::thread stopper([&sched] { sched.stop(); });
  while (sched.stats().dropped < 5u) std::this_thread::yield();
  release.set_value();
  stopper.join();
  sched.wait(job);
  EXPECT_TRUE(sched.finished(job));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(sched.stats().dropped, 5u);
  EXPECT_EQ(sched.stats().executed, 1u);

  // A stopped scheduler refuses new work instead of queuing it forever.
  std::atomic<int> late{0};
  EXPECT_EQ(sched.submit(Lane::Interactive, counting_tasks(late, 2)), 0u);
  EXPECT_EQ(late.load(), 0);
}

// Idle workers poll their own and their peers' empty deques when they
// start and whenever they wake; with no work queued anywhere none of that
// is a steal attempt. The assertion holds under every interleaving (a
// worker that has not polled yet counts nothing either); the short sleep
// only gives the workers time to do their polling first.
TEST(ServeScheduler, IdlePollsAreNotStealAttempts) {
  PointScheduler sched(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sched.stats().steal_attempts, 0u);

  std::atomic<int> ran{0};
  sched.wait(sched.submit(Lane::Bulk, counting_tasks(ran, 1)));
  EXPECT_EQ(ran.load(), 1);
  const PointScheduler::Stats s = sched.stats();
  EXPECT_GE(s.steal_attempts, s.steals);
}

// Submission racing the workers' sleep: every round submits one task just
// as the workers, having drained the previous one, test the sleep
// predicate and block. A count published outside the sleep mutex can land
// between that test and the wait, leaving the task queued with every
// worker asleep; the round's deadline turns such a lost wake-up into a
// failure instead of a hang. Runs in the TSan preset (smoke label).
TEST(ServeScheduler, SubmitRacingWorkerSleepNeverStrandsTasks) {
  constexpr int kRounds = 3000;
  for (const int workers : {1, 2}) {
    PointScheduler sched(workers);
    std::atomic<int> ran{0};
    for (int i = 0; i < kRounds; ++i) {
      const Lane lane = i % 2 == 0 ? Lane::Interactive : Lane::Bulk;
      const std::uint64_t job = sched.submit(lane, counting_tasks(ran, 1));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!sched.finished(job)) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "task stranded in round " << i << " with " << workers
            << " worker(s)";
        std::this_thread::yield();
      }
    }
    EXPECT_EQ(ran.load(), kRounds);
  }
}
