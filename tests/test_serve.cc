/**
 * @file
 * Tests for the sweep service (src/serve/): JSON and frame codecs, the
 * persistent content-addressed result cache, and the daemon itself over
 * a real Unix-domain socket.
 *
 * The load-bearing guarantees pinned here:
 *   - hit-after-miss byte identity: a warm-cache sweep returns exactly
 *     the bytes the in-process run produces, with zero executed points;
 *   - restart rebuild: a daemon restarted on a torn cache file serves
 *     every intact record and re-executes nothing else;
 *   - single-flight: concurrent clients requesting the same uncached
 *     point execute it exactly once;
 *   - quarantined points are never cached (the next request retries);
 *   - a malformed frame or payload gets a precise error reply, never a
 *     crash or hang.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "ckpt/journal.h"
#include "exec/point_codec.h"
#include "exec/sweep_runner.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/json.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

using serve::CacheConfig;
using serve::decode_frame;
using serve::decode_request;
using serve::encode_frame;
using serve::FrameStatus;
using serve::from_hex;
using serve::JsonValue;
using serve::parse_json;
using serve::ResultCache;
using serve::ServeClientOptions;
using serve::ServeConfig;
using serve::ServedSweep;
using serve::ServeError;
using serve::ServeRequest;
using serve::ServeServer;
using serve::to_hex;

RunParams
quick_params()
{
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 600;
    rp.drain_max = 1500;
    return rp;
}

MultiNocConfig
serve_config()
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    cfg.mesh_width = cfg.mesh_height = 4;
    cfg.region_width = 2;
    return cfg;
}

std::vector<RunItem>
serve_items(const std::vector<double> &loads)
{
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{serve_config(), traffic, quick_params()});
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

/** A fresh scratch directory with a socket-length-safe path. */
std::string
fresh_dir(const std::string &tag)
{
    // sun_path is 108 bytes; keep the socket path short and unique.
    std::string tmpl = "/tmp/ctsv_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    return std::string(buf.data());
}

ServeConfig
server_config(const std::string &dir)
{
    ServeConfig cfg;
    cfg.socket_path = dir + "/s.sock";
    cfg.cache.path = dir + "/cache.bin";
    cfg.exec.jobs = 2;
    return cfg;
}

ServeClientOptions
client_options(const ServeConfig &cfg)
{
    ServeClientOptions copts;
    copts.socket_path = cfg.socket_path;
    copts.attempts = 40;
    copts.retry_delay_ms = 50;
    return copts;
}

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(ServeJson, ParsesTheRequestGrammar)
{
    const JsonValue v = parse_json(
        " {\"type\":\"sweep\", \"points\":[\"abc\", \"\"], \"n\":-2.5e1, "
        "\"t\":true, \"f\":false, \"z\":null} ");
    ASSERT_TRUE(v.is_object());
    ASSERT_NE(v.find("type"), nullptr);
    EXPECT_EQ(v.find("type")->string, "sweep");
    ASSERT_NE(v.find("points"), nullptr);
    ASSERT_TRUE(v.find("points")->is_array());
    ASSERT_EQ(v.find("points")->items.size(), 2u);
    EXPECT_EQ(v.find("points")->items[0].string, "abc");
    EXPECT_DOUBLE_EQ(v.find("n")->number, -25.0);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_FALSE(v.find("f")->boolean);
    EXPECT_EQ(v.find("z")->kind, JsonValue::Kind::kNull);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapesAndSurrogatePairs)
{
    const JsonValue v =
        parse_json("\"a\\\"b\\\\c\\n\\t\\u0041\\ud83d\\ude00\"");
    ASSERT_TRUE(v.is_string());
    EXPECT_EQ(v.string, std::string("a\"b\\c\n\tA") + "\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedDocumentsWithOffsets)
{
    // Each rejection must throw ServeError (never crash) and name a
    // byte offset so protocol errors are actionable.
    const char *bad[] = {
        "",            "{",         "[1,]",       "{\"a\":}",
        "{\"a\" 1}",   "tru",       "\"\\q\"",    "\"\\ud83d\"",
        "01x",         "1 2",       "\"unterminated",
        "{\"a\":1,}",  "nul",       "\"ctrl\x01\"",
    };
    for (const char *doc : bad) {
        try {
            parse_json(doc);
            FAIL() << "accepted malformed JSON: " << doc;
        } catch (const ServeError &e) {
            EXPECT_NE(std::string(e.what()).find("offset"),
                      std::string::npos)
                << "no offset in: " << e.what();
        }
    }
}

TEST(ServeJson, RejectsExcessiveNesting)
{
    std::string deep;
    for (int i = 0; i < serve::kMaxJsonDepth + 1; ++i)
        deep += '[';
    deep += "1";
    for (int i = 0; i < serve::kMaxJsonDepth + 1; ++i)
        deep += ']';
    EXPECT_THROW(parse_json(deep), ServeError);
}

TEST(ServeJson, QuoteRoundTripsThroughParse)
{
    const std::string nasty = "a\"b\\c\n\x01\x1f tail";
    const JsonValue v = parse_json(serve::json_quote(nasty));
    ASSERT_TRUE(v.is_string());
    EXPECT_EQ(v.string, nasty);
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(ServeFrame, RoundTripsAndReportsConsumedBytes)
{
    const std::string payload = "{\"type\":\"ping\"}";
    std::vector<std::uint8_t> bytes = encode_frame(payload);
    // Trailing bytes of a following frame must not confuse the decode.
    bytes.push_back(0xff);
    const auto dec = decode_frame(bytes);
    ASSERT_EQ(dec.status, FrameStatus::kFrame);
    EXPECT_EQ(dec.payload, payload);
    EXPECT_EQ(dec.consumed, serve::kFrameHeaderBytes + payload.size());
}

TEST(ServeFrame, IncrementalDecodeNeedsEveryByte)
{
    const std::vector<std::uint8_t> bytes = encode_frame("hello");
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const auto dec = decode_frame(bytes.data(), n);
        EXPECT_EQ(dec.status, FrameStatus::kNeedMore) << "prefix " << n;
    }
    EXPECT_EQ(decode_frame(bytes).status, FrameStatus::kFrame);
}

TEST(ServeFrame, BadMagicAndOversizeLengthAreTerminal)
{
    std::vector<std::uint8_t> bad = encode_frame("x");
    bad[0] ^= 0x5a;
    EXPECT_EQ(decode_frame(bad).status, FrameStatus::kBad);

    std::vector<std::uint8_t> huge = encode_frame("x");
    huge[4] = huge[5] = huge[6] = huge[7] = 0xff; // 4 GiB declared
    const auto dec = decode_frame(huge);
    EXPECT_EQ(dec.status, FrameStatus::kBad);
    EXPECT_NE(dec.error.find("cap"), std::string::npos);
}

TEST(ServeFrame, HexCodecRoundTripsAndRejectsGarbage)
{
    const std::vector<std::uint8_t> bytes = {0x00, 0x7f, 0xab, 0xff};
    EXPECT_EQ(to_hex(bytes), "007fabff");
    EXPECT_EQ(from_hex("007fABff"), bytes);
    EXPECT_THROW(from_hex("abc"), ServeError);   // odd length
    EXPECT_THROW(from_hex("zz"), ServeError);    // bad digit
    EXPECT_TRUE(from_hex("").empty());
}

// ---------------------------------------------------------------------
// Request decoding (the fuzzed trust boundary)
// ---------------------------------------------------------------------

TEST(ServeRequestDecode, DecodesEveryRequestKind)
{
    EXPECT_EQ(decode_request("{\"type\":\"ping\"}").kind,
              ServeRequest::Kind::kPing);
    EXPECT_EQ(decode_request("{\"type\":\"stats\"}").kind,
              ServeRequest::Kind::kStats);
    EXPECT_EQ(decode_request("{\"type\":\"shutdown\"}").kind,
              ServeRequest::Kind::kShutdown);

    const auto items = serve_items({0.02});
    const std::string req = "{\"type\":\"sweep\",\"points\":[\"" +
                            to_hex(encode_point_spec(items[0])) + "\"]}";
    const ServeRequest sweep = decode_request(req);
    EXPECT_EQ(sweep.kind, ServeRequest::Kind::kSweep);
    ASSERT_EQ(sweep.items.size(), 1u);
    EXPECT_EQ(point_hash(sweep.items[0]), point_hash(items[0]));
}

TEST(ServeRequestDecode, RejectsMalformedRequestsPrecisely)
{
    const char *bad[] = {
        "[]",                                  // not an object
        "{}",                                  // no type
        "{\"type\":7}",                        // type not a string
        "{\"type\":\"nope\"}",                 // unknown type
        "{\"type\":\"sweep\"}",                // no points
        "{\"type\":\"sweep\",\"points\":7}",   // points not an array
        "{\"type\":\"sweep\",\"points\":[7]}", // point not a string
        "{\"type\":\"sweep\",\"points\":[\"zz\"]}",   // bad hex
        "{\"type\":\"sweep\",\"points\":[\"abcd\"]}", // bad spec image
    };
    for (const char *req : bad)
        EXPECT_THROW(decode_request(req), ServeError) << req;
}

TEST(ServeRequestDecode, RejectsOversizePointLists)
{
    std::string req = "{\"type\":\"sweep\",\"points\":[";
    for (std::size_t i = 0; i <= serve::kMaxPointsPerRequest; ++i) {
        if (i != 0)
            req += ',';
        req += "\"\"";
    }
    req += "]}";
    try {
        decode_request(req);
        FAIL() << "accepted an oversize point list";
    } catch (const ServeError &e) {
        EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
    }
}

TEST(ServeRequestDecode, RejectsTamperedSpecImages)
{
    const auto items = serve_items({0.02});
    std::vector<std::uint8_t> image = encode_point_spec(items[0]);
    image[image.size() / 2] ^= 0x01;
    const std::string req = "{\"type\":\"sweep\",\"points\":[\"" +
                            to_hex(image) + "\"]}";
    EXPECT_THROW(decode_request(req), ServeError);
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
payload_of(char fill, std::size_t n)
{
    return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

TEST(ServeCache, InsertsLooksUpAndCounts)
{
    ResultCache cache(CacheConfig{}); // memory-only
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_FALSE(cache.contains(1));

    cache.insert(1, payload_of('a', 10));
    cache.insert(2, payload_of('b', 20));
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.bytes(),
              2 * ckpt::kJournalRecordHeaderBytes + 10u + 20u);

    std::vector<std::uint8_t> got;
    ASSERT_TRUE(cache.lookup(1, got));
    EXPECT_EQ(got, payload_of('a', 10));

    // Re-insert replaces the payload without growing the entry count.
    cache.insert(1, payload_of('c', 30));
    EXPECT_EQ(cache.entries(), 2u);
    ASSERT_TRUE(cache.lookup(1, got));
    EXPECT_EQ(got, payload_of('c', 30));
}

TEST(ServeCache, SurvivesReopenBitForBit)
{
    const std::string dir = fresh_dir("reopen");
    CacheConfig cfg;
    cfg.path = dir + "/cache.bin";
    {
        ResultCache cache(cfg);
        cache.insert(7, payload_of('x', 100));
        cache.insert(9, payload_of('y', 50));
    }
    ResultCache again(cfg);
    EXPECT_EQ(again.entries(), 2u);
    EXPECT_EQ(again.restored(), 2u);
    EXPECT_EQ(again.restored_discarded(), 0u);
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(again.lookup(7, got));
    EXPECT_EQ(got, payload_of('x', 100));
}

TEST(ServeCache, TornTailIsDiscardedThenCompacted)
{
    const std::string dir = fresh_dir("torn");
    CacheConfig cfg;
    cfg.path = dir + "/cache.bin";
    {
        ResultCache cache(cfg);
        cache.insert(1, payload_of('a', 40));
        cache.insert(2, payload_of('b', 40));
    }
    // Simulate a SIGKILL mid-append: garbage where a record started.
    {
        std::ofstream out(cfg.path, std::ios::binary | std::ios::app);
        out.write("CJL1torn", 8);
    }
    {
        ResultCache torn(cfg);
        EXPECT_EQ(torn.entries(), 2u);
        EXPECT_EQ(torn.restored(), 2u);
        EXPECT_GT(torn.restored_discarded(), 0u);
        std::vector<std::uint8_t> got;
        ASSERT_TRUE(torn.lookup(2, got));
        EXPECT_EQ(got, payload_of('b', 40));
        // The compaction must leave an appendable file.
        torn.insert(3, payload_of('c', 40));
    }
    // After the compacting reopen the file is fully intact again.
    ResultCache clean(cfg);
    EXPECT_EQ(clean.entries(), 3u);
    EXPECT_EQ(clean.restored_discarded(), 0u);
}

TEST(ServeCache, EvictsOldestFirstPastTheByteBound)
{
    const std::string dir = fresh_dir("evict");
    CacheConfig cfg;
    cfg.path = dir + "/cache.bin";
    const std::uint64_t per =
        ckpt::kJournalRecordHeaderBytes + 100u; // one record's cost
    cfg.max_bytes = 3 * per;

    ResultCache cache(cfg);
    for (std::uint64_t k = 1; k <= 5; ++k)
        cache.insert(k, payload_of(static_cast<char>('a' + k), 100));
    EXPECT_EQ(cache.entries(), 3u);
    EXPECT_EQ(cache.evicted(), 2u);
    EXPECT_LE(cache.bytes(), cfg.max_bytes);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(5));

    // The bound also survives a reopen (the file was compacted).
    ResultCache again(cfg);
    EXPECT_EQ(again.entries(), 3u);
    EXPECT_TRUE(again.contains(5));
}

TEST(ServeCache, NeverEvictsTheSoleJustInsertedEntry)
{
    CacheConfig cfg;
    cfg.max_bytes = 8; // smaller than any record
    ResultCache cache(cfg);
    cache.insert(1, payload_of('a', 100));
    EXPECT_TRUE(cache.contains(1)); // kept despite exceeding the bound
    cache.insert(2, payload_of('b', 100));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_FALSE(cache.contains(1)); // evicted by the next insert
}

// ---------------------------------------------------------------------
// Server end-to-end (real Unix-domain socket)
// ---------------------------------------------------------------------

TEST(ServeServer, HitAfterMissIsByteIdenticalWithZeroExecution)
{
    const std::string dir = fresh_dir("hitmiss");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08});
    const std::string serial = to_csv(run_batch(items));

    const ServedSweep cold =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.misses, items.size());
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(to_csv(cold.results), serial);

    const ServedSweep warm =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.hits, items.size());
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(to_csv(warm.results), serial);

    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.executed, items.size()); // pass 2 executed nothing
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.hits, items.size());
    server.stop();
}

TEST(ServeServer, RestartRebuildsFromTornCacheAndServesHits)
{
    const std::string dir = fresh_dir("restart");
    const ServeConfig cfg = server_config(dir);
    const auto items = serve_items({0.02, 0.05});
    std::string cold_csv;
    {
        ServeServer first(cfg);
        first.start();
        const ServedSweep cold =
            serve::run_batch_served(items, client_options(cfg));
        ASSERT_TRUE(cold.ok());
        cold_csv = to_csv(cold.results);
        first.stop();
    }
    // Tear the cache tail, as a SIGKILL mid-append would.
    {
        std::ofstream out(cfg.cache.path,
                          std::ios::binary | std::ios::app);
        out.write("CJL1torn-tail", 13);
    }
    ServeServer second(cfg);
    second.start();
    const serve::ServeStats boot = second.stats();
    EXPECT_EQ(boot.restored_records, items.size());
    EXPECT_GT(boot.restored_discarded_bytes, 0u);

    const ServedSweep warm =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.hits, items.size());
    EXPECT_EQ(to_csv(warm.results), cold_csv);
    EXPECT_EQ(second.stats().executed, 0u);
    second.stop();
}

TEST(ServeServer, CachedRecordThatDoesNotDecodeExactlyIsReExecuted)
{
    // A record whose CRC holds but whose payload carries one byte more
    // than a SyntheticResult is not that point's result: the daemon
    // must run the point instead of serving the record as a hit.
    const std::string dir = fresh_dir("exact");
    const ServeConfig cfg = server_config(dir);
    const auto items = serve_items({0.02});
    {
        ckpt::Writer w;
        put_synth_result(w, run_batch(items)[0]);
        std::vector<std::uint8_t> payload = w.bytes();
        payload.push_back(0);
        ckpt::JournalWriter(cfg.cache.path,
                            ckpt::JournalWriter::Mode::kTruncate)
            .append(point_hash(items[0]), payload);
    }
    ServeServer server(cfg);
    server.start();
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.misses, 1u);
    EXPECT_EQ(got.hits, 0u);
    EXPECT_EQ(server.stats().executed, 1u);
    EXPECT_EQ(to_csv(got.results), to_csv(run_batch(items)));
    server.stop();
}

TEST(ServeServer, ConcurrentClientsSingleFlightEachPointOnce)
{
    const std::string dir = fresh_dir("flight");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08, 0.11});
    const std::string serial = to_csv(run_batch(items));

    constexpr int kClients = 4;
    std::vector<std::string> csvs(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const ServedSweep got =
                serve::run_batch_served(items, client_options(cfg));
            if (got.ok())
                csvs[static_cast<std::size_t>(c)] = to_csv(got.results);
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (const std::string &csv : csvs)
        EXPECT_EQ(csv, serial);

    // The whole point of single-flight: 4 clients x 4 points, but each
    // point simulated exactly once.
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.executed, items.size());
    EXPECT_EQ(stats.points, items.size() * kClients);
    server.stop();
}

TEST(ServeServer, DuplicatePointsInOneRequestResolveOnce)
{
    const std::string dir = fresh_dir("dup");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    auto items = serve_items({0.02, 0.05});
    items.push_back(items[0]); // same point twice in one request
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(server.stats().executed, 2u);
    EXPECT_EQ(to_csv({got.results[0]}), to_csv({got.results[2]}));
    server.stop();
}

TEST(ServeServer, QuarantinedPointsAreNeverCached)
{
    const std::string dir = fresh_dir("quar");
    // A worker that always fails: every miss quarantines.
    const std::string worker = dir + "/worker.sh";
    {
        std::ofstream out(worker);
        out << "#!/bin/sh\nexit 1\n";
    }
    ::chmod(worker.c_str(), 0755);

    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = worker;
    cfg.exec.scratch = dir + "/scratch";
    cfg.exec.point_retries = 0;
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02});
    const ServedSweep first =
        serve::run_batch_served(items, client_options(cfg));
    EXPECT_EQ(first.quarantined, items.size());
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.provenance[0], Provenance::kQuarantined);
    EXPECT_NE(first.errors[0].find("exit code 1"), std::string::npos);

    // Nothing was cached, so a second request re-attempts (and fails
    // again) instead of replaying a bogus hit.
    const ServedSweep second =
        serve::run_batch_served(items, client_options(cfg));
    EXPECT_EQ(second.quarantined, items.size());
    EXPECT_EQ(second.hits, 0u);
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.cache_entries, 0u);
    EXPECT_EQ(stats.quarantined, 2u);
    server.stop();
}

TEST(ServeServer, IsolateBackendMatchesInProcessBytes)
{
    const std::string dir = fresh_dir("isol");
    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = CATNAP_SIM_PATH;
    cfg.exec.scratch = dir + "/scratch";
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05});
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_csv(got.results), to_csv(run_batch(items)));
    server.stop();
}

TEST(ServeServer, IsolatedMissIsCachedBeforeItsSiblingsFinish)
{
    // The worker for items[1] stalls until the test creates `release`.
    // Its sibling in the same request must reach the cache — and be
    // served to a second client as a hit — while it is still stalled.
    const std::string dir = fresh_dir("durable");
    const auto items = serve_items({0.02, 0.05});
    const std::string key = key_hex(point_hash(items[1]));
    const std::string release = dir + "/release";
    const std::string worker = dir + "/worker.sh";
    {
        std::ofstream out(worker);
        out << "#!/bin/sh\ncase \"$2\" in *" << key << "*)\n"
            << "  while [ ! -e " << release << " ]; do sleep 0.02; done;;\n"
            << "esac\nexec " << CATNAP_SIM_PATH << " \"$@\"\n";
    }
    ::chmod(worker.c_str(), 0755);

    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = worker;
    cfg.exec.scratch = dir + "/scratch";
    ServeServer server(cfg);
    server.start();

    ServedSweep both;
    std::thread first(
        [&] { both = serve::run_batch_served(items, client_options(cfg)); });
    bool cached = false;
    for (int i = 0; i < 500 && !cached; ++i) {
        cached = server.stats().cache_entries == 1;
        if (!cached)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ServedSweep fast;
    if (cached)
        fast = serve::run_batch_served({items[0]}, client_options(cfg));
    const std::uint64_t entries_while_stalled = server.stats().cache_entries;

    std::ofstream(release).put('x');
    first.join();
    EXPECT_TRUE(cached) << "finished point was not cached while its "
                           "sibling stalled";
    EXPECT_EQ(fast.hits, cached ? 1u : 0u);
    EXPECT_EQ(entries_while_stalled, 1u);
    ASSERT_TRUE(both.ok());
    EXPECT_EQ(to_csv(both.results), to_csv(run_batch(items)));
    server.stop();
}

TEST(ServeServer, EvictionBoundHoldsUnderServedSweeps)
{
    const std::string dir = fresh_dir("bound");
    ServeConfig cfg = server_config(dir);
    cfg.cache.max_bytes = 600; // roughly two records of this sweep
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08, 0.11});
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok());
    const serve::ServeStats stats = server.stats();
    EXPECT_GT(stats.evicted, 0u);
    EXPECT_LE(stats.cache_bytes, cfg.cache.max_bytes);
    EXPECT_LT(stats.cache_entries, items.size());
    server.stop();
}

TEST(ServeServer, ClientRetriesUntilTheDaemonAppears)
{
    const std::string dir = fresh_dir("retry");
    const ServeConfig cfg = server_config(dir);
    const auto items = serve_items({0.02});

    // The client starts first, against a socket that does not exist
    // yet, and must ride its retry loop until the daemon binds.
    ServedSweep got;
    std::thread client([&] {
        got = serve::run_batch_served(items, client_options(cfg));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ServeServer server(cfg);
    server.start();
    client.join();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_csv(got.results), to_csv(run_batch(items)));
    server.stop();
}

TEST(ServeServer, StatsPingAndShutdownRequests)
{
    const std::string dir = fresh_dir("stats");
    ServeConfig cfg = server_config(dir);
    cfg.stats_path = dir + "/stats.json";
    ServeServer server(cfg);
    server.start();

    EXPECT_TRUE(serve::ping(client_options(cfg)));
    const serve::ServeStats stats = serve::fetch_stats(client_options(cfg));
    EXPECT_EQ(stats.requests, 0u); // stats/ping are not sweep requests

    // The stats file was rewritten by the stats request.
    std::ifstream in(cfg.stats_path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"requests\":0"), std::string::npos);

    EXPECT_FALSE(server.shutdown_requested());
    serve::request_shutdown(client_options(cfg));
    EXPECT_TRUE(server.shutdown_requested());
    server.stop();
    EXPECT_FALSE(serve::ping(ServeClientOptions{cfg.socket_path, 1, 10}));
}

// ---------------------------------------------------------------------
// Malformed traffic against a live server
// ---------------------------------------------------------------------

/** A bare-bones client socket for protocol-abuse tests. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~RawConn() { ::close(fd_); }

    void
    send_bytes(const std::vector<std::uint8_t> &bytes)
    {
        ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** Reads one reply frame (empty payload on EOF). */
    std::string
    recv_reply()
    {
        std::vector<std::uint8_t> acc;
        std::uint8_t chunk[4096];
        for (;;) {
            const auto dec = decode_frame(acc.data(), acc.size());
            if (dec.status == FrameStatus::kFrame)
                return dec.payload;
            if (dec.status == FrameStatus::kBad)
                return "";
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return "";
            acc.insert(acc.end(), chunk, chunk + n);
        }
    }

    bool
    at_eof()
    {
        std::uint8_t b = 0;
        return ::recv(fd_, &b, 1, 0) == 0;
    }

  private:
    int fd_ = -1;
};

TEST(ServeServer, MalformedFrameGetsErrorReplyThenClose)
{
    const std::string dir = fresh_dir("badframe");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    RawConn conn(cfg.socket_path);
    conn.send_bytes({'n', 'o', 'p', 'e', 0, 0, 0, 0});
    const std::string reply = conn.recv_reply();
    EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(reply.find("magic"), std::string::npos);
    // Framing errors cannot be resynchronised: the server closes.
    EXPECT_TRUE(conn.at_eof());
    server.stop();
}

TEST(ServeServer, MalformedJsonGetsErrorReplyAndConnectionSurvives)
{
    const std::string dir = fresh_dir("badjson");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    RawConn conn(cfg.socket_path);
    conn.send_bytes(encode_frame("{\"type\":"));
    const std::string err = conn.recv_reply();
    EXPECT_NE(err.find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(err.find("offset"), std::string::npos);

    // The framing stayed intact, so the connection is still usable.
    conn.send_bytes(encode_frame("{\"type\":\"ping\"}"));
    EXPECT_NE(conn.recv_reply().find("\"type\":\"pong\""),
              std::string::npos);
    server.stop();
}

TEST(ServeServer, BadRequestShapeGetsPreciseError)
{
    const std::string dir = fresh_dir("badreq");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    RawConn conn(cfg.socket_path);
    conn.send_bytes(
        encode_frame("{\"type\":\"sweep\",\"points\":[\"zz\"]}"));
    const std::string err = conn.recv_reply();
    EXPECT_NE(err.find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(err.find("points[0]"), std::string::npos);
    server.stop();
}

} // namespace
} // namespace catnap
