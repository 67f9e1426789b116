/**
 * @file The engine's own workers: every invocation starts at most
 * threads() of them (the calling thread is worker 0) and joins them
 * before it returns. Jobs run exactly once, engines are reusable, and
 * a run with one worker never leaves the calling thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"

namespace nisqpp {
namespace {

Engine
engineWith(int threads)
{
    EngineOptions options;
    options.threads = threads;
    return Engine(options);
}

std::uint64_t
taskCount(const Engine &engine)
{
    obs::MetricSet runtime;
    engine.runtimeMetricsInto(runtime);
    return runtime.value("sched.pool.tasks");
}

std::vector<std::function<void()>>
countingJobs(int n, std::atomic<int> &count)
{
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < n; ++i)
        jobs.push_back([&count] { ++count; });
    return jobs;
}

/** Thread ids a decoder factory was called on. */
struct FactoryThreads
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    DecoderFactory inner = unionFindDecoderFactory();

    DecoderFactory
    factory()
    {
        return [this](const SurfaceLattice &lattice, ErrorType type) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                ids.insert(std::this_thread::get_id());
            }
            return inner(lattice, type);
        };
    }
};

TEST(EngineWorkers, RunsEveryJobOnce)
{
    Engine engine = engineWith(4);
    std::vector<std::atomic<int>> runs(1000);
    std::vector<std::function<void()>> jobs;
    for (auto &slot : runs)
        jobs.push_back([&slot] { ++slot; });
    engine.runJobs(std::move(jobs));
    for (const auto &slot : runs)
        EXPECT_EQ(slot.load(), 1);
}

TEST(EngineWorkers, SingleThreadStillCompletes)
{
    Engine engine = engineWith(1);
    std::atomic<int> count{0};
    engine.runJobs(countingJobs(100, count));
    EXPECT_EQ(count.load(), 100);
}

TEST(EngineWorkers, ZeroSelectsHardwareConcurrency)
{
    EXPECT_GE(engineWith(0).threads(), 1);
}

TEST(EngineWorkers, EmptyJobListReturns)
{
    Engine engine = engineWith(2);
    engine.runJobs({}); // must not deadlock
    EXPECT_EQ(taskCount(engine), 0u);
}

TEST(EngineWorkers, ReusableAcrossCalls)
{
    Engine engine = engineWith(3);
    std::atomic<int> count{0};
    for (int call = 0; call < 5; ++call) {
        engine.runJobs(countingJobs(50, count));
        EXPECT_EQ(count.load(), 50 * (call + 1));
    }
}

TEST(EngineWorkers, CountsTasksAndReportsNoSteals)
{
    // Workers claim through one shared cursor, so there is nothing to
    // steal and no steal counter: the task counter tracks every job.
    Engine engine = engineWith(1);
    EXPECT_EQ(taskCount(engine), 0u);
    std::atomic<int> count{0};
    engine.runJobs(countingJobs(200, count));
    EXPECT_EQ(taskCount(engine), 200u);
    obs::MetricSet runtime;
    engine.runtimeMetricsInto(runtime);
    runtime.forEachScalar(
        [](const std::string &name, bool, std::uint64_t) {
            EXPECT_NE(name, "sched.pool.steals");
        });
}

TEST(EngineWorkers, TaskCountAccumulatesAcrossCalls)
{
    Engine engine = engineWith(4);
    for (int call = 1; call <= 3; ++call) {
        std::vector<std::function<void()>> jobs(40, [] {});
        engine.runJobs(std::move(jobs));
        EXPECT_EQ(taskCount(engine),
                  static_cast<std::uint64_t>(40 * call));
    }
}

TEST(EngineWorkers, UnevenJobsAllFinish)
{
    // A few long jobs mixed with many short ones: the workers not
    // stuck in a long job claim the short ones behind it.
    Engine engine = engineWith(4);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([&count, i] {
            if (i % 16 == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ++count;
        });
    engine.runJobs(std::move(jobs));
    EXPECT_EQ(count.load(), 64);
}

TEST(EngineWorkers, HelperExceptionReachesTheCaller)
{
    // The calling thread holds its job until a helper has thrown, so
    // the exception must cross from a helper thread.
    Engine engine = engineWith(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    std::vector<std::function<void()>> jobs(4, [&] {
        if (std::this_thread::get_id() != caller) {
            thrown = true;
            throw std::runtime_error("job failed");
        }
        while (!thrown)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    EXPECT_THROW(engine.runJobs(std::move(jobs)), std::runtime_error);
}

TEST(EngineWorkers, OneThreadEngineRunsOnCallingThread)
{
    Engine engine = engineWith(1);
    std::set<std::thread::id> jobThreads;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 10; ++i)
        jobs.push_back([&jobThreads] {
            jobThreads.insert(std::this_thread::get_id());
        });
    engine.runJobs(std::move(jobs));
    EXPECT_EQ(jobThreads,
              std::set<std::thread::id>{std::this_thread::get_id()});

    // A many-shard cell: every simulator is built on the caller too.
    FactoryThreads recorder;
    const DecoderFactory factory = recorder.factory();
    const SurfaceLattice lattice(3);
    CellSpec spec;
    spec.lattice = &lattice;
    spec.physicalRate = 0.05;
    spec.rule = {2048, 2048, 1u << 30};
    spec.seed = 7;
    spec.factory = &factory;
    EXPECT_EQ(engine.runCell(spec).trials, 2048u);
    EXPECT_EQ(recorder.ids,
              std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(EngineWorkers, OneShardCellRunsOnCallingThread)
{
    // One shard is one unit of work, so even a 4-thread engine runs it
    // on the calling thread and starts no helper.
    Engine engine = engineWith(4);
    FactoryThreads recorder;
    const DecoderFactory factory = recorder.factory();
    const SurfaceLattice lattice(3);
    CellSpec spec;
    spec.lattice = &lattice;
    spec.physicalRate = 0.05;
    spec.rule = {300, 300, 1u << 30}; // below the 512-trial shard
    spec.seed = 11;
    spec.factory = &factory;
    EXPECT_EQ(engine.runCell(spec).trials, 300u);
    EXPECT_EQ(recorder.ids,
              std::set<std::thread::id>{std::this_thread::get_id()});
    EXPECT_EQ(taskCount(engine), 1u);
}

} // namespace
} // namespace nisqpp
