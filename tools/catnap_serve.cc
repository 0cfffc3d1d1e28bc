/**
 * @file
 * catnap_serve: the sweep-serving daemon (DESIGN.md §17).
 *
 * Listens on a local Unix-domain socket for framed sweep requests,
 * answers repeat points from a persistent content-addressed result
 * cache, and executes the rest through the in-process execution engine
 * (or crash-isolated catnap_sim workers with --isolate). Clients are
 * the bench harnesses and catnap_sim --loads runs invoked with
 * --serve SOCKET.
 *
 * Examples:
 *   catnap_serve --socket /tmp/catnap.sock --cache sweep-cache.bin
 *   catnap_serve --socket /tmp/catnap.sock --cache c.bin \
 *       --cache-max-bytes 1048576 --jobs 4 --stats-out stats.json
 *
 * The daemon runs until SIGINT/SIGTERM or a client shutdown request,
 * then tears down cleanly: in-flight requests finish, the stats file is
 * rewritten, and the socket path is removed. SIGKILL is also safe — the
 * cache file is an append-only CRC-checked journal that tolerates a
 * torn tail, and the stats file is rewritten after every request.
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "exec/sweep.h"
#include "obs/export.h"
#include "obs/trace_buffer.h"
#include "serve/server.h"

using namespace catnap;

namespace {

/** The sweep flags the daemon takes: how it executes misses. The
 * journal is its cache, and it cannot serve through itself. */
constexpr unsigned kDaemonSweepFlags = kJobsFlag | kIsolateFlags;

/** Signal flag: SIGINT/SIGTERM ask the main loop to exit. */
std::atomic<int> g_stop{0};

void
on_signal(int)
{
    g_stop.store(1);
}

[[noreturn]] void
usage(int code)
{
    std::printf(
        "catnap_serve -- sweep-serving daemon with a persistent result "
        "cache\n\n"
        "  --socket PATH             Unix-domain socket to listen on "
        "(required)\n"
        "  --cache FILE              cache backing file (CRC-checked\n"
        "                            journal; survives restarts and\n"
        "                            SIGKILL; default: memory-only)\n"
        "  --cache-max-bytes N       evict oldest entries past N bytes\n"
        "                            (0 = unbounded)\n"
        "  --stats-out FILE          rewrite FILE with the stats JSON\n"
        "                            after every request (SIGKILL-safe)\n"
        "  --trace-out FILE          write serve.*/proc.* host-time\n"
        "                            events as Chrome trace JSON at exit\n"
        "  --trace-events N          event ring-buffer capacity\n"
        "                            (default 1048576)\n"
        "cache-miss execution (default scratch .catnap-serve-scratch):\n"
        "%s"
        "exit codes:\n"
        "  0 clean shutdown          1 bind/cache/daemon error\n"
        "  2 usage error             3 invalid configuration value\n",
        sweep_flags_help(kDaemonSweepFlags).c_str());
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeConfig cfg;
    std::string trace_out;
    std::size_t trace_capacity = EventTrace::kDefaultCapacity;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (parse_sweep_flag(argc, argv, i, kDaemonSweepFlags, cfg.exec))
            continue;
        if (a == "--help" || a == "-h") usage(0);
        else if (a == "--socket")
            cfg.socket_path = need_value(argc, argv, i);
        else if (a == "--cache")
            cfg.cache.path = need_value(argc, argv, i);
        else if (a == "--cache-max-bytes")
            cfg.cache.max_bytes =
                parse_uint(a.c_str(), need_value(argc, argv, i));
        else if (a == "--stats-out")
            cfg.stats_path = need_value(argc, argv, i);
        else if (a == "--trace-out")
            trace_out = need_value(argc, argv, i);
        else if (a == "--trace-events")
            trace_capacity = static_cast<std::size_t>(parse_int(
                a.c_str(), need_value(argc, argv, i), 1, 1ll << 32));
        else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(kExitUsage);
        }
    }
    if (cfg.socket_path.empty()) {
        std::fprintf(stderr, "--socket PATH is required\n");
        usage(kExitUsage);
    }
    check_sweep_options(cfg.exec);
    if (cfg.exec.scratch.empty())
        cfg.exec.scratch = ".catnap-serve-scratch";

    std::unique_ptr<EventTrace> trace;
    if (!trace_out.empty()) {
        trace = std::make_unique<EventTrace>(trace_capacity);
        cfg.sink = trace.get();
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // A client that disappears mid-reply must not SIGPIPE the daemon
    // (sends also pass MSG_NOSIGNAL; this covers any stray write).
    std::signal(SIGPIPE, SIG_IGN);

    std::unique_ptr<serve::ServeServer> server;
    try {
        server = std::make_unique<serve::ServeServer>(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "catnap_serve: %s\n", e.what());
        return kExitRuntime;
    }

    const serve::ServeStats boot = server->stats();
    std::fprintf(stderr,
                 "catnap_serve: listening on %s (%llu cached point(s) "
                 "restored, %llu torn byte(s) discarded)\n",
                 cfg.socket_path.c_str(),
                 static_cast<unsigned long long>(boot.cache_entries),
                 static_cast<unsigned long long>(
                     boot.restored_discarded_bytes));
    server->start();

    while (g_stop.load() == 0 && !server->shutdown_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server->stop();
    const serve::ServeStats final_stats = server->stats();
    std::fprintf(stderr, "catnap_serve: exiting; stats %s\n",
                 final_stats.to_json().c_str());
    server.reset();

    if (trace) {
        TraceExportMeta meta;
        meta.num_subnets = 1;
        meta.num_nodes = 1;
        save_chrome_trace(trace_out, *trace, meta);
        std::fprintf(stderr, "catnap_serve: wrote %s (%llu event(s))\n",
                     trace_out.c_str(),
                     static_cast<unsigned long long>(trace->recorded()));
    }
    return 0;
}
