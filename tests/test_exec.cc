/**
 * @file
 * Tests for the execution engine (src/exec/): the thread pool's ordered
 * parallel map, the deterministic batch runner, the crash-isolated
 * subprocess backend, and the result cache behind its journal.
 *
 * The load-bearing guarantee is pinned by ExecSweep.*: the parallel
 * sweep must be *byte-identical* to the serial loop for any --jobs
 * value — compared through write_csv(), the same serialization the
 * plotting scripts consume.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>

#include "ckpt/journal.h"
#include "exec/proc_runner.h"
#include "exec/result_cache.h"
#include "exec/sweep.h"
#include "exec/sweep_runner.h"
#include "exec/thread_pool.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

RunParams
quick_params()
{
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 600;
    rp.drain_max = 1500;
    return rp;
}

std::string
to_csv(const std::vector<SyntheticResult> &rows)
{
    std::ostringstream os;
    write_csv(os, rows);
    return os.str();
}

// ---------------------------------------------------------------------
// ThreadPool::for_each
// ---------------------------------------------------------------------

TEST(ExecPool, RunsEverySubmittedTask)
{
    std::atomic<int> counter{0};
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    pool.for_each(100, [&counter](std::size_t) { ++counter; });
    // for_each returns only once every index has finished.
    EXPECT_EQ(counter.load(), 100);
}

TEST(ExecPool, WorkerIndexVisibleInsideTasksOnly)
{
    EXPECT_EQ(ThreadPool::current_worker(), -1);
    std::atomic<bool> in_range{true};
    ThreadPool pool(3);
    pool.for_each(32, [&in_range, &pool](std::size_t) {
        const int w = ThreadPool::current_worker();
        if (w < 0 || w >= pool.size())
            in_range = false;
    });
    EXPECT_TRUE(in_range.load());
    // The calling thread only waits; it never becomes a worker.
    EXPECT_EQ(ThreadPool::current_worker(), -1);
    EXPECT_GE(ThreadPool::default_jobs(), 1);
}

TEST(ExecPool, EveryIndexRunsExactlyOnce)
{
    // n = 0, n < jobs and n >> jobs. Each slot is a plain int written
    // only by the worker that claimed its index, so an index handed out
    // twice shows up as a count of 2 (and as a race under TSan).
    ThreadPool pool(4);
    for (const std::size_t n : {std::size_t{0}, std::size_t{2},
                                std::size_t{1000}}) {
        std::vector<int> runs(n, 0);
        pool.for_each(n, [&runs](std::size_t i) { ++runs[i]; });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(runs[i], 1) << "n=" << n << " index " << i;
    }
}

TEST(ExecPool, SingleWorkerClaimsIndicesInIncreasingOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.for_each(8, [&order](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ExecPool, OnePoolRunsBackToBackBatches)
{
    ThreadPool pool(3);
    std::vector<std::size_t> first(5, 0), second(40, 0);
    pool.for_each(first.size(), [&first](std::size_t i) { first[i] = i; });
    pool.for_each(second.size(),
                  [&second](std::size_t i) { second[i] = 2 * i; });
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], i);
    for (std::size_t i = 0; i < second.size(); ++i)
        EXPECT_EQ(second[i], 2 * i);
}

TEST(ExecPool, IdlePoolJoinsCleanly)
{
    // Built and destroyed with no work: the benchmark's set-up timing.
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4);
    }
    ThreadPool defaulted(0);
    EXPECT_EQ(defaulted.size(), ThreadPool::default_jobs());
}

TEST(ExecPool, LowestThrowingIndexWinsAfterEveryIndexRuns)
{
    ThreadPool pool(4);
    for (int iter = 0; iter < 10; ++iter) {
        std::vector<int> ran(16, 0);
        try {
            pool.for_each(ran.size(), [&ran](std::size_t i) {
                ran[i] = 1;
                if (i % 3 == 2)
                    throw std::runtime_error("index " + std::to_string(i));
            });
            FAIL() << "expected for_each to rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 2");
        }
        for (std::size_t i = 0; i < ran.size(); ++i)
            ASSERT_EQ(ran[i], 1) << "index " << i << " never ran";
    }
    // A failed batch leaves the pool usable.
    std::atomic<int> counter{0};
    pool.for_each(8, [&counter](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 8);
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

TEST(ExecRunner, DeliversResultsInSubmissionOrder)
{
    // Later jobs finish first (reverse-staggered sleeps), yet slot i
    // must still hold f(i).
    ExecOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    const std::size_t n = 16;
    const auto results = runner.map<std::size_t>(n, [n](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(200 * (n - i)));
        return i * i;
    });
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ExecRunner, FirstErrorBySubmissionIndexWins)
{
    ExecOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    try {
        runner.run_jobs(12, [](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("error from job 3");
            if (i == 7)
                throw std::runtime_error("error from job 7");
        });
        FAIL() << "expected run_jobs to rethrow";
    } catch (const std::runtime_error &e) {
        // Deterministic even though job 7 may *finish* first.
        EXPECT_STREQ(e.what(), "error from job 3");
    }
}

TEST(ExecRunner, NeverUsesMoreWorkersThanPoints)
{
    // jobs > n: the runner sizes its pool to the batch, so no more than
    // n distinct workers ever report in.
    ExecOptions opts;
    opts.jobs = 8;
    SweepRunner runner(opts);
    const std::size_t n = 3;
    const auto workers = runner.map<int>(n, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return ThreadPool::current_worker();
    });
    const std::set<int> distinct(workers.begin(), workers.end());
    EXPECT_LE(distinct.size(), n);
    for (const int w : workers) {
        EXPECT_GE(w, 0);
        EXPECT_LT(w, static_cast<int>(n));
    }
}

// ---------------------------------------------------------------------
// run_batch: the determinism pin
// ---------------------------------------------------------------------

/** The serial reference: one run_synthetic per load, in load order. */
std::vector<SyntheticResult>
serial_sweep(const MultiNocConfig &cfg, const RunParams &rp,
             const std::vector<double> &loads)
{
    std::vector<SyntheticResult> out;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        out.push_back(run_synthetic(cfg, traffic, rp));
    }
    return out;
}

std::vector<RunItem>
sweep_items(const MultiNocConfig &cfg, const RunParams &rp,
            const std::vector<double> &loads)
{
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{cfg, traffic, rp});
    }
    return items;
}

TEST(ExecSweep, ParallelIsByteIdenticalToSerial)
{
    // A fig10-style sweep: the Catnap configuration over a load grid,
    // serialized through the same CSV writer the plot scripts use.
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    const RunParams rp = quick_params();
    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10};

    ExecOptions opts;
    opts.jobs = 4;
    EXPECT_EQ(to_csv(serial_sweep(cfg, rp, loads)),
              to_csv(run_batch(sweep_items(cfg, rp, loads), opts)));
}

TEST(ExecSweep, SingleJobDegenerateCaseMatchesSerial)
{
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    const RunParams rp = quick_params();
    const std::vector<double> loads = {0.02, 0.08};

    ExecOptions opts;
    opts.jobs = 1;
    EXPECT_EQ(to_csv(serial_sweep(cfg, rp, loads)),
              to_csv(run_batch(sweep_items(cfg, rp, loads), opts)));
}

TEST(ExecSweep, RunBatchMixedConfigsMatchesSerialRuns)
{
    const RunParams rp = quick_params();
    SyntheticConfig traffic;
    traffic.load = 0.05;

    std::vector<RunItem> items;
    items.push_back(RunItem{single_noc_config(512), traffic, rp});
    items.push_back(
        RunItem{multi_noc_config(4, GatingKind::kCatnap), traffic, rp});
    SyntheticConfig transpose = traffic;
    transpose.pattern = PatternKind::kTranspose;
    items.push_back(
        RunItem{multi_noc_config(4, GatingKind::kCatnap), transpose, rp});

    ExecOptions opts;
    opts.jobs = 3;
    const auto batch = run_batch(items, opts);

    std::vector<SyntheticResult> serial;
    for (const RunItem &item : items)
        serial.push_back(run_synthetic(item.cfg, item.traffic,
                                       item.params));
    EXPECT_EQ(to_csv(serial), to_csv(batch));
}

TEST(ExecSweep, ExceptionMidSweepPropagatesAfterBatchDrains)
{
    // A sweep where one point throws: the surviving points still run
    // (independent points are not cancelled), and the error surfaces
    // after the batch drains instead of hanging or being swallowed.
    const MultiNocConfig cfg = multi_noc_config(2);
    const RunParams rp = quick_params();
    std::atomic<int> completed{0};

    ExecOptions opts;
    opts.jobs = 2;
    SweepRunner runner(opts);
    EXPECT_THROW(
        runner.run_jobs(4,
                        [&](std::size_t i) {
                            if (i == 1)
                                throw std::runtime_error("point 1 died");
                            SyntheticConfig traffic;
                            traffic.load = 0.02 + 0.02 * static_cast<double>(i);
                            run_synthetic(cfg, traffic, rp);
                            ++completed;
                        }),
        std::runtime_error);
    EXPECT_EQ(completed.load(), 3);
}

// ---------------------------------------------------------------------
// ProcRunner: crash-isolated subprocess backend (DESIGN.md §15)
// ---------------------------------------------------------------------

/** Small, fast sweep geometry shared by the isolation tests. */
MultiNocConfig
proc_config()
{
    MultiNocConfig cfg = multi_noc_config(2);
    cfg.mesh_width = cfg.mesh_height = 4;
    cfg.region_width = 2;
    return cfg;
}

std::vector<RunItem>
proc_items(std::initializer_list<double> loads)
{
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{proc_config(), traffic, quick_params()});
    }
    return items;
}

/** Writes an executable fake-worker shell script. Positional args as
 * spawned: $1=--worker-spec $2=<spec> $3=--worker-out $4=<out>. */
std::string
write_script(const std::string &path, const std::string &body)
{
    {
        std::ofstream out(path);
        out << "#!/bin/sh\n" << body << "\n";
    }
    ::chmod(path.c_str(), 0755);
    return path;
}

SweepOptions
proc_options(const std::string &tag)
{
    SweepOptions opts;
    opts.isolate = true;
    opts.worker = CATNAP_SIM_PATH;
    opts.scratch = ::testing::TempDir() + "catnap_proc_" + tag;
    return opts;
}

/** Lines in @p path (0 when it does not exist). */
int
count_lines(const std::string &path)
{
    std::ifstream in(path);
    int n = 0;
    for (std::string line; std::getline(in, line);)
        ++n;
    return n;
}

TEST(ExecProc, IsolatedSweepMatchesInProcessBitForBit)
{
    const auto items = proc_items({0.02, 0.05});
    const std::vector<SyntheticResult> serial = run_batch(items);

    const SweepOutcome sweep = run_sweep(items, proc_options("bitident"));
    ASSERT_EQ(sweep.exit_code, 0) << sweep.fatal;
    EXPECT_EQ(sweep.executed, items.size());
    EXPECT_EQ(sweep.from_journal, 0u);
    EXPECT_EQ(to_csv(sweep.results), to_csv(serial));
}

TEST(ExecProc, ResumeReplaysJournalWithoutSpawning)
{
    const auto items = proc_items({0.02, 0.05});
    SweepOptions opts = proc_options("resume");
    opts.journal = opts.scratch + "/sweep.journal";

    const SweepOutcome fresh = run_sweep(items, opts);
    ASSERT_EQ(fresh.exit_code, 0) << fresh.fatal;
    EXPECT_EQ(fresh.executed, items.size());

    opts.resume = true;
    opts.worker = "/nonexistent/worker"; // must never be needed
    const SweepOutcome resumed = run_sweep(items, opts);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.fatal;
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.from_journal, items.size());
    EXPECT_EQ(to_csv(resumed.results), to_csv(fresh.results));
}

TEST(ExecProc, PartialJournalResumesOnlyMissingPoints)
{
    // Journal holds two finished points; the resumed sweep adds a
    // third load. Only the new point spawns a worker, and the results
    // equal an uninterrupted in-process run of all three.
    const auto two = proc_items({0.02, 0.05});
    const auto three = proc_items({0.02, 0.05, 0.08});
    SweepOptions opts = proc_options("partial");
    opts.journal = opts.scratch + "/sweep.journal";
    ASSERT_EQ(run_sweep(two, opts).exit_code, 0);

    opts.resume = true;
    const SweepOutcome resumed = run_sweep(three, opts);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.fatal;
    EXPECT_EQ(resumed.from_journal, 2u);
    EXPECT_EQ(resumed.executed, 1u);
    EXPECT_EQ(resumed.provenance[2], Provenance::kExecuted);
    EXPECT_EQ(to_csv(resumed.results), to_csv(run_batch(three)));
}

TEST(ExecProc, CrashingWorkerIsQuarantinedAndClassified)
{
    // The wrapper worker counts its own spawns: one per attempt.
    SweepOptions opts = proc_options("exit3");
    const std::string count = opts.scratch + "_spawns";
    std::remove(count.c_str());
    opts.worker = write_script(opts.scratch + "_worker.sh",
                               "echo x >> " + count + "; exit 3");
    opts.point_retries = 2;

    ProcRunner runner(opts);
    const PointReport rep = runner.run_one(proc_items({0.02})[0]);
    EXPECT_EQ(rep.status, Provenance::kQuarantined);
    EXPECT_EQ(rep.attempts, 3); // 1 + point_retries
    ASSERT_EQ(rep.failures.size(), 3u);
    for (const PointFailure &f : rep.failures) {
        EXPECT_EQ(f.kind, PointFailKind::kExit);
        EXPECT_EQ(f.detail, 3);
    }
    EXPECT_EQ(rep.failure_reason(),
              "3 attempt(s) [exit code 3; exit code 3; exit code 3]");
    EXPECT_EQ(count_lines(count), 3);
}

TEST(ExecProc, SignalDeathIsClassifiedAsSignal)
{
    SweepOptions opts = proc_options("sig");
    opts.worker = write_script(opts.scratch + "_worker.sh", "kill -KILL $$");
    opts.point_retries = 0;
    ProcRunner runner(opts);
    const PointReport rep = runner.run_one(proc_items({0.02})[0]);
    EXPECT_EQ(rep.status, Provenance::kQuarantined);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].kind, PointFailKind::kSignal);
    EXPECT_EQ(rep.failures[0].detail, SIGKILL);
}

TEST(ExecProc, WatchdogKillsHungWorker)
{
    SweepOptions opts = proc_options("hang");
    // `exec`: the watchdog kills only the process it spawned, so a
    // child sleep would outlive it and hold the test's output open.
    opts.worker = write_script(opts.scratch + "_worker.sh", "exec sleep 30");
    opts.point_retries = 0;
    opts.point_timeout_ms = 200;
    ProcRunner runner(opts);
    const auto t0 = std::chrono::steady_clock::now();
    const PointReport rep = runner.run_one(proc_items({0.02})[0]);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(rep.status, Provenance::kQuarantined);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].kind, PointFailKind::kTimeout);
    // SIGKILLed at the budget, not after sleep(30) finished.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                  .count(),
              10);
}

TEST(ExecProc, CorruptResultImageIsClassifiedBadResult)
{
    // Worker exits 0 but writes garbage: the sealed-container check
    // must reject it rather than merge undefined bytes.
    SweepOptions opts = proc_options("garbage");
    opts.worker = write_script(opts.scratch + "_worker.sh",
                               "printf 'not a result image' > \"$4\"");
    opts.point_retries = 0;
    ProcRunner runner(opts);
    const PointReport rep = runner.run_one(proc_items({0.02})[0]);
    EXPECT_EQ(rep.status, Provenance::kQuarantined);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].kind, PointFailKind::kBadResult);
}

TEST(ExecProc, DuplicatePointsRunOnce)
{
    // Two copies of one point spawn one worker and share its result
    // and provenance; the wrapper worker counts its own spawns.
    SweepOptions opts = proc_options("dedupe");
    const std::string count = opts.scratch + "_spawns";
    std::remove(count.c_str());
    opts.worker = write_script(opts.scratch + "_worker.sh",
                               "echo x >> " + count + "; exec " +
                                   CATNAP_SIM_PATH + " \"$@\"");
    const auto items = proc_items({0.02, 0.02, 0.05});
    const SweepOutcome sweep = run_sweep(items, opts);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.fatal;
    EXPECT_EQ(count_lines(count), 2); // duplicate key spawned once
    EXPECT_EQ(sweep.executed, 3u);
    EXPECT_EQ(sweep.provenance[1], Provenance::kExecuted);
    EXPECT_EQ(to_csv(sweep.results), to_csv(run_batch(items)));
}

// ---------------------------------------------------------------------
// ResultCache: the journal store (exec/result_cache.h)
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
payload_of(char fill, std::size_t n)
{
    return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

/** A journal path with no file behind it yet. */
std::string
cache_path(const std::string &tag)
{
    const std::string path =
        ::testing::TempDir() + "catnap_result_cache_" + tag + ".journal";
    std::remove(path.c_str());
    return path;
}

TEST(ResultCache, InsertsLooksUpAndCounts)
{
    const std::string path = cache_path("insert");
    ResultCache cache(path, ckpt::JournalWriter::Mode::kTruncate);
    std::vector<std::uint8_t> got;
    EXPECT_FALSE(cache.lookup(1, got));

    cache.insert(1, payload_of('a', 10));
    cache.insert(2, payload_of('b', 20));
    ASSERT_TRUE(cache.lookup(1, got));
    EXPECT_EQ(got, payload_of('a', 10));
    ASSERT_TRUE(cache.lookup(2, got));
    EXPECT_EQ(got, payload_of('b', 20));

    // Re-insert replaces the payload; every insert is one appended
    // record.
    cache.insert(1, payload_of('c', 30));
    ASSERT_TRUE(cache.lookup(1, got));
    EXPECT_EQ(got, payload_of('c', 30));
    EXPECT_EQ(ckpt::load_journal(path).records.size(), 3u);
}

TEST(ResultCache, SurvivesReopenBitForBit)
{
    const std::string path = cache_path("reopen");
    {
        ResultCache cache(path, ckpt::JournalWriter::Mode::kTruncate);
        cache.insert(7, payload_of('x', 100));
        cache.insert(9, payload_of('y', 50));
    }
    ResultCache again(path, ckpt::JournalWriter::Mode::kAppend);
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(again.lookup(7, got));
    EXPECT_EQ(got, payload_of('x', 100));
    ASSERT_TRUE(again.lookup(9, got));
    EXPECT_EQ(got, payload_of('y', 50));
    const ckpt::JournalScan scan = ckpt::load_journal(path);
    EXPECT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.discarded_bytes, 0u);
}

TEST(ResultCache, TornTailIsDiscardedThenCompacted)
{
    const std::string path = cache_path("torn");
    {
        ResultCache cache(path, ckpt::JournalWriter::Mode::kTruncate);
        cache.insert(1, payload_of('a', 40));
        cache.insert(2, payload_of('b', 40));
    }
    // Simulate a SIGKILL mid-append: garbage where a record started.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("CJL1torn", 8);
    }
    EXPECT_GT(ckpt::load_journal(path).discarded_bytes, 0u);
    {
        ResultCache torn(path, ckpt::JournalWriter::Mode::kAppend);
        std::vector<std::uint8_t> got;
        ASSERT_TRUE(torn.lookup(2, got));
        EXPECT_EQ(got, payload_of('b', 40));
        // The compaction must leave an appendable file.
        torn.insert(3, payload_of('c', 40));
    }
    // After the compacting reopen the file is fully intact again.
    const ckpt::JournalScan scan = ckpt::load_journal(path);
    EXPECT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.discarded_bytes, 0u);
}

} // namespace
} // namespace catnap
