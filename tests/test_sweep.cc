/**
 * @file
 * Tests for the one sweep-execution interface (src/exec/sweep.h): the
 * shared flag parser and exclusion rules, run_sweep()'s backends,
 * journal and provenance, and the mapping of failures onto exit codes.
 *
 * The load-bearing guarantee: every backend returns results in item
 * order, byte-identical to the serial run_batch() — compared through
 * write_csv(), the serialization the plotting scripts consume.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "ckpt/journal.h"
#include "ckpt/schema.h"
#include "exec/point_codec.h"
#include "exec/result_cache.h"
#include "exec/sweep.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

std::vector<RunItem>
sweep_items(std::initializer_list<double> loads)
{
    MultiNocConfig cfg = multi_noc_config(2);
    cfg.mesh_width = cfg.mesh_height = 4;
    cfg.region_width = 2;
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 600;
    rp.drain_max = 1500;
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{cfg, traffic, rp});
    }
    return items;
}

std::string
to_csv(const std::vector<SyntheticResult> &rows)
{
    std::ostringstream os;
    write_csv(os, rows);
    return os.str();
}

SweepOptions
isolated(const std::string &tag)
{
    SweepOptions opts;
    opts.isolate = true;
    opts.worker = CATNAP_SIM_PATH;
    opts.scratch = ::testing::TempDir() + "catnap_sweep_" + tag;
    return opts;
}

/** A journal path in the scratch directory of @p tag, with no file yet
 * (the directory is created). */
std::string
journal_path(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "catnap_sweep_" + tag;
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/sweep.journal";
    std::filesystem::remove(path);
    return path;
}

/** Parses @p args (after a program name) against a table of the sweep
 * flags in @p accept. */
SweepOptions
parse(std::vector<std::string> args, unsigned accept = kAllSweepFlags)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    SweepOptions opts;
    parse_command_line(static_cast<int>(argv.size()), argv.data(),
                       {"usage: prog", sweep_flags(opts, accept)});
    return opts;
}

// ---------------------------------------------------------------------
// Flags and the flags they need
// ---------------------------------------------------------------------

TEST(SweepCli, ParsesEveryFlagGroup)
{
    const SweepOptions opts =
        parse({"--jobs", "3", "--isolate", "--worker", "w", "--scratch", "s",
               "--journal", "j", "--resume", "--point-timeout", "500",
               "--point-retries", "0"});
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_TRUE(opts.isolate);
    EXPECT_EQ(opts.worker, "w");
    EXPECT_EQ(opts.scratch, "s");
    EXPECT_EQ(opts.journal, "j");
    EXPECT_TRUE(opts.resume);
    EXPECT_EQ(opts.point_timeout_ms, 500);
    EXPECT_EQ(opts.point_retries, 0);
}

TEST(SweepCli, GroupsOutsideTheAcceptMaskAreNotConsumed)
{
    SweepOptions opts;
    const std::vector<Flag> table = sweep_flags(opts, kJobsFlag);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table[0].name, "--jobs");
    EXPECT_EXIT(parse({"--isolate"}, kJobsFlag),
                ::testing::ExitedWithCode(2), "unknown option '--isolate'");
}

TEST(SweepCliDeathTest, BadValuesExitThree)
{
    EXPECT_EXIT(parse({"--jobs", "banana"}), ::testing::ExitedWithCode(3),
                "invalid value 'banana' for --jobs: not an integer");
    EXPECT_EXIT(parse({"--point-timeout", "-1"}),
                ::testing::ExitedWithCode(3), "must be non-negative");
    EXPECT_EXIT(parse({"--point-retries", "101"}),
                ::testing::ExitedWithCode(3), "must be in \\[0, 100\\]");
    EXPECT_EXIT(parse_real("--load", "nan", 0.0, 1.0),
                ::testing::ExitedWithCode(3), "must be finite");
    EXPECT_EXIT(parse({"--jobs"}), ::testing::ExitedWithCode(2),
                "missing value for --jobs");
}

TEST(SweepCliDeathTest, ExclusionRulesExitTwo)
{
    EXPECT_EXIT(parse({"--worker", "w"}), ::testing::ExitedWithCode(2),
                "--worker requires --isolate");
    EXPECT_EXIT(parse({"--point-retries", "0"}),
                ::testing::ExitedWithCode(2),
                "--point-retries requires --isolate");
    EXPECT_EXIT(parse({"--resume"}), ::testing::ExitedWithCode(2),
                "--resume requires --journal");
    EXPECT_EXIT(parse({"--isolate", "--resume"}),
                ::testing::ExitedWithCode(2), "--resume requires --journal");
}

TEST(SweepCli, ValidCombinationsPassTheRules)
{
    parse({"--jobs", "2"});
    parse({"--isolate", "--journal", "j", "--resume", "--scratch", "s"});
    parse({"--journal", "j", "--resume", "--jobs", "4"});
}

// ---------------------------------------------------------------------
// Backends, provenance and exit codes
// ---------------------------------------------------------------------

TEST(SweepBackend, LocalMatchesRunBatchAndReportsExecuted)
{
    const auto items = sweep_items({0.02, 0.05, 0.08});
    SweepOptions opts;
    opts.jobs = 2;
    const SweepOutcome out = run_sweep(items, opts);
    ASSERT_EQ(out.exit_code, 0) << out.fatal;
    EXPECT_STREQ(out.backend, "local");
    EXPECT_EQ(out.executed, items.size());
    for (const Provenance p : out.provenance)
        EXPECT_EQ(p, Provenance::kExecuted);
    EXPECT_EQ(to_csv(out.results), to_csv(run_batch(items)));
    EXPECT_EQ(out.status_line(),
              "[local] 3 executed, 0 point(s) from journal, 0 quarantined\n");
}

TEST(SweepBackend, LocalJournalResumesWithoutExecuting)
{
    // --journal needs no --isolate: the in-process backend stores every
    // point, and --resume replays them all without executing any.
    const auto items = sweep_items({0.02, 0.05, 0.08});
    SweepOptions opts;
    opts.jobs = 2;
    opts.journal = journal_path("local");
    const SweepOutcome cold = run_sweep(items, opts);
    ASSERT_EQ(cold.exit_code, 0) << cold.fatal;
    EXPECT_EQ(cold.executed, items.size());
    EXPECT_EQ(ckpt::load_journal(opts.journal).records.size(), items.size());

    opts.resume = true;
    const SweepOutcome warm = run_sweep(items, opts);
    ASSERT_EQ(warm.exit_code, 0) << warm.fatal;
    EXPECT_EQ(warm.status_line(),
              "[local] 0 executed, 3 point(s) from journal, 0 quarantined\n");
    EXPECT_EQ(to_csv(warm.results), to_csv(run_batch(items)));
}

TEST(SweepBackend, SecondSweepOnALockedJournalFailsFast)
{
    // A sweep without --resume starts its journal over. While another
    // sweep holds the file, it must fail at once and leave it intact.
    SweepOptions opts;
    opts.journal = journal_path("locked");
    ResultCache held(opts.journal, ckpt::JournalWriter::Mode::kTruncate);
    held.insert(1, {0x2a});

    const SweepOutcome out = run_sweep(sweep_items({0.02}), opts);
    EXPECT_EQ(out.exit_code, kExitRuntime);
    EXPECT_EQ(out.fatal, "journal: '" + opts.journal +
                             "' is in use by another sweep");
    EXPECT_EQ(out.executed, 0u);
    const ckpt::JournalScan scan = ckpt::load_journal(opts.journal);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].key, 1u);
}

TEST(SweepBackend, CachedRecordThatDoesNotDecodeExactlyIsReExecuted)
{
    // A record whose CRC holds but whose payload carries one byte more
    // than a SyntheticResult is not that point's result: the resume must
    // run the point instead of replaying the record.
    const auto items = sweep_items({0.02});
    SweepOptions opts;
    opts.journal = journal_path("exact");
    opts.resume = true;
    {
        ckpt::Writer w;
        ckpt::put(w, run_batch(items)[0]);
        std::vector<std::uint8_t> payload = w.bytes();
        payload.push_back(0);
        ckpt::JournalWriter(opts.journal,
                            ckpt::JournalWriter::Mode::kTruncate)
            .append(point_hash(items[0]), payload);
    }
    const SweepOutcome out = run_sweep(items, opts);
    ASSERT_EQ(out.exit_code, 0) << out.fatal;
    EXPECT_EQ(out.from_journal, 0u);
    EXPECT_EQ(out.executed, 1u);
    EXPECT_EQ(to_csv(out.results), to_csv(run_batch(items)));
}

TEST(SweepBackend, IsolateMatchesLocalAndResumesFromTheJournal)
{
    const auto items = sweep_items({0.02, 0.05});
    SweepOptions opts = isolated("resume");
    opts.journal = opts.scratch + "/sweep.journal";
    const SweepOutcome fresh = run_sweep(items, opts);
    ASSERT_EQ(fresh.exit_code, 0) << fresh.fatal;
    EXPECT_STREQ(fresh.backend, "isolate");
    EXPECT_EQ(fresh.executed, items.size());
    EXPECT_EQ(to_csv(fresh.results), to_csv(run_batch(items)));

    opts.resume = true;
    opts.worker = "/nonexistent/worker"; // must never be needed
    const SweepOutcome resumed = run_sweep(items, opts);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.fatal;
    EXPECT_EQ(resumed.from_journal, items.size());
    EXPECT_EQ(resumed.provenance[1], Provenance::kFromJournal);
    EXPECT_EQ(to_csv(resumed.results), to_csv(fresh.results));
}

TEST(SweepBackend, TornJournalTailStaysResumable)
{
    // A supervisor killed mid-append leaves a torn record. The resume
    // after it re-runs that point, and the one after that must find
    // every point intact instead of stranding new records behind the
    // torn bytes.
    const auto three = sweep_items({0.02, 0.05, 0.08});
    SweepOptions opts = isolated("torn");
    opts.journal = opts.scratch + "/sweep.journal";
    ASSERT_EQ(run_sweep(sweep_items({0.02, 0.05}), opts).exit_code, 0);
    std::filesystem::resize_file(
        opts.journal, std::filesystem::file_size(opts.journal) - 5);

    opts.resume = true;
    const SweepOutcome first = run_sweep(three, opts);
    ASSERT_EQ(first.exit_code, 0) << first.fatal;
    EXPECT_EQ(first.from_journal, 1u);
    EXPECT_EQ(first.executed, 2u);

    opts.worker = "/nonexistent/worker"; // must never be needed
    const SweepOutcome second = run_sweep(three, opts);
    ASSERT_EQ(second.exit_code, 0) << second.fatal;
    EXPECT_EQ(second.from_journal, 3u);
    EXPECT_EQ(to_csv(second.results), to_csv(run_batch(three)));
}

TEST(SweepBackend, QuarantineExitsFourWithADeterministicSummary)
{
    const auto items = sweep_items({0.02, 0.05});
    SweepOptions opts = isolated("quar");
    opts.worker = "/bin/false";
    opts.point_retries = 0;
    const SweepOutcome a = run_sweep(items, opts);
    const SweepOutcome b = run_sweep(items, opts);
    EXPECT_EQ(a.exit_code, kExitQuarantine);
    EXPECT_EQ(a.quarantined, items.size());
    EXPECT_EQ(a.provenance[0], Provenance::kQuarantined);
    EXPECT_NE(a.quarantine_summary.find("point 1 key="), std::string::npos);
    EXPECT_NE(a.quarantine_summary.find("1 attempt(s) [exit code 1]"),
              std::string::npos);
    EXPECT_EQ(a.quarantine_summary, b.quarantine_summary);
}

TEST(SweepBackend, QuarantinedPointsAreNeverJournalled)
{
    const auto items = sweep_items({0.02});
    SweepOptions opts = isolated("quarj");
    opts.worker = "/bin/false";
    opts.point_retries = 0;
    opts.journal = journal_path("quarj");
    const SweepOutcome first = run_sweep(items, opts);
    EXPECT_EQ(first.exit_code, kExitQuarantine);
    EXPECT_EQ(first.quarantined, items.size());
    EXPECT_TRUE(ckpt::load_journal(opts.journal).records.empty());

    // Nothing was journalled, so a resume re-attempts (and fails again)
    // instead of replaying a bogus result.
    opts.resume = true;
    const SweepOutcome second = run_sweep(items, opts);
    EXPECT_EQ(second.exit_code, kExitQuarantine);
    EXPECT_EQ(second.from_journal, 0u);
    EXPECT_EQ(second.quarantined, items.size());
    EXPECT_EQ(second.provenance[0], Provenance::kQuarantined);
    EXPECT_TRUE(ckpt::load_journal(opts.journal).records.empty());
}

TEST(SweepBackend, IsolatedMissIsCachedBeforeItsSiblingsFinish)
{
    // The worker for items[1] stalls until the test creates `release`.
    // Its sibling must reach the journal while it is still stalled.
    const auto items = sweep_items({0.02, 0.05});
    SweepOptions opts = isolated("durable");
    opts.jobs = 2;
    opts.journal = journal_path("durable");
    const std::string release = opts.scratch + "/release";
    std::filesystem::remove(release);
    opts.worker = opts.scratch + "/worker.sh";
    {
        std::ofstream out(opts.worker);
        out << "#!/bin/sh\ncase \"$2\" in *"
            << key_hex(point_hash(items[1])) << "*)\n"
            << "  while [ ! -e " << release << " ]; do sleep 0.02; done;;\n"
            << "esac\nexec " << CATNAP_SIM_PATH << " \"$@\"\n";
    }
    ::chmod(opts.worker.c_str(), 0755);

    SweepOutcome both;
    std::thread sweep([&] { both = run_sweep(items, opts); });
    std::size_t stored = 0;
    for (int i = 0; i < 500 && stored == 0; ++i) {
        stored = ckpt::load_journal(opts.journal).records.size();
        if (stored == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const std::size_t stored_while_stalled =
        ckpt::load_journal(opts.journal).records.size();

    std::ofstream(release).put('x');
    sweep.join();
    EXPECT_EQ(stored_while_stalled, 1u)
        << "finished point was not journalled while its sibling stalled";
    ASSERT_EQ(both.exit_code, 0) << both.fatal;
    EXPECT_EQ(to_csv(both.results), to_csv(run_batch(items)));
}

TEST(SweepBackend, UnspawnableWorkerIsASupervisorFault)
{
    SweepOptions opts = isolated("nospawn");
    opts.worker = "/nonexistent/worker";
    const SweepOutcome out = run_sweep(sweep_items({0.02}), opts);
    EXPECT_EQ(out.exit_code, kExitRuntime);
    EXPECT_NE(out.fatal.find("cannot spawn"), std::string::npos);
}

TEST(SweepBackend, ThrowingInProcessPointQuarantines)
{
    // The traffic generator throws on a load above 1 packet/node/cycle.
    auto items = sweep_items({0.02});
    items[0].traffic.load = 2.0;
    const SweepOutcome out = run_sweep(items, SweepOptions{});
    EXPECT_EQ(out.exit_code, kExitQuarantine);
    EXPECT_NE(out.quarantine_summary.find("point threw"), std::string::npos);
}

} // namespace
} // namespace catnap
