/**
 * @file
 * Checkpoint subsystem tests (src/ckpt, DESIGN.md §13): container
 * validation (magic/version/hash/truncation/CRC), byte-identical
 * round-trips, fork independence, and mid-run save/resume identity
 * (empty and non-empty fault plans).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "app/system.h"
#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "ckpt/schema.h"
#include "exec/point_codec.h"
#include "fault/fault.h"
#include "noc/multinoc.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

/** Serializes @p net into a fresh byte buffer. */
std::vector<std::uint8_t>
net_bytes(const MultiNoc &net)
{
    ckpt::Writer w;
    net.Serialize(w);
    return w.bytes();
}

/** Drives @p net with @p gen for @p cycles cycles. */
void
run_traffic(MultiNoc &net, SyntheticTraffic &gen, Cycle cycles)
{
    const Cycle end = net.now() + cycles;
    while (net.now() < end) {
        gen.step(net.now());
        net.tick();
    }
}

/** A small-but-busy config exercising gating, selection, and the RCS. */
MultiNocConfig
test_config()
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.seed = 99;
    return cfg;
}

/** test_config() plus a fault plan with scheduled and probabilistic
 * faults, so the fault controller's full state rides along. */
MultiNocConfig
faulty_config()
{
    MultiNocConfig cfg = test_config();
    cfg.fault.kill_router(900, 3, 40)
        .lose_wakes(400, 1, 10, 300)
        .glitch_rcs(600, 2, 20);
    cfg.fault.rcs_glitch_prob = 0.002;
    cfg.fault.wake_loss_prob = 0.01;
    return cfg;
}

/** Scratch file that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name) : path_(name) {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Expects every field of two synthetic results to match exactly
 * (doubles compared bit-for-bit — the identity contract is not
 * "approximately equal", it is "the same computation"). */
void
expect_identical(const SyntheticResult &a, const SyntheticResult &b)
{
    EXPECT_EQ(a.config_label, b.config_label);
    EXPECT_EQ(a.offered_load, b.offered_load);
    EXPECT_EQ(a.offered_rate, b.offered_rate);
    EXPECT_EQ(a.accepted_rate, b.accepted_rate);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.csc_percent, b.csc_percent);
    EXPECT_EQ(a.vdd, b.vdd);
    EXPECT_EQ(a.measured_packets, b.measured_packets);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.faults_fired, b.faults_fired);
    EXPECT_EQ(a.subnet_failures, b.subnet_failures);
    EXPECT_EQ(a.power.buffer, b.power.buffer);
    EXPECT_EQ(a.power.crossbar, b.power.crossbar);
    EXPECT_EQ(a.power.control, b.power.control);
    EXPECT_EQ(a.power.clock, b.power.clock);
    EXPECT_EQ(a.power.link, b.power.link);
    EXPECT_EQ(a.power.ni, b.power.ni);
    EXPECT_EQ(a.power.or_net, b.power.or_net);
    EXPECT_EQ(a.power_static.buffer, b.power_static.buffer);
    EXPECT_EQ(a.power_static.link, b.power_static.link);
}

// -- Archive primitives ----------------------------------------------------

TEST(CkptArchive, RoundTripsEveryFieldType)
{
    ckpt::Writer w;
    w.put_u8(0xab);
    w.put_u32(0xdeadbeefu);
    w.put_u64(0x0123456789abcdefULL);
    w.put_i32(-42);
    w.put_i64(-1234567890123LL);
    w.put_double(3.14159265358979);
    w.put_bool(true);
    w.put_bool(false);
    w.put_string("catnap");

    ckpt::Reader r(w.bytes());
    EXPECT_EQ(r.take_u8(), 0xab);
    EXPECT_EQ(r.take_u32(), 0xdeadbeefu);
    EXPECT_EQ(r.take_u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.take_i32(), -42);
    EXPECT_EQ(r.take_i64(), -1234567890123LL);
    EXPECT_EQ(r.take_double(), 3.14159265358979);
    EXPECT_TRUE(r.take_bool());
    EXPECT_FALSE(r.take_bool());
    EXPECT_EQ(r.take_string(), "catnap");
    EXPECT_TRUE(r.exhausted());
}

TEST(CkptArchive, TruncationThrowsWithOffset)
{
    ckpt::Writer w;
    w.put_u32(7);
    ckpt::Reader r(w.bytes());
    r.take_u32();
    try {
        r.take_u64();
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("offset 4"),
                  std::string::npos);
    }
}

TEST(CkptArchive, BadBoolEncodingRejected)
{
    const std::uint8_t byte = 2;
    ckpt::Reader r(&byte, 1);
    EXPECT_THROW(r.take_bool(), ckpt::CkptError);
}

TEST(CkptArchive, CountLargerThanTheBytesLeftIsRejected)
{
    ckpt::Writer w;
    w.put_u32(0);
    w.put_u64(4);
    w.put_u32(0);
    ckpt::Reader fits(w.bytes());
    fits.take_u32();
    EXPECT_EQ(fits.take_count(), 4u); // 4 elements in 4 bytes fit

    ckpt::Writer big;
    big.put_u32(0);
    big.put_u64(5); // 5 elements in 4 bytes cannot
    big.put_u32(0);
    ckpt::Reader r(big.bytes());
    r.take_u32();
    try {
        r.take_count();
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("count 5 at offset 4"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CkptArchive, HugeFaultEventCountInASpecThrowsCkptError)
{
    // A sealed spec whose fault-event count says 2^40: the decoder must
    // reject the count, not try to allocate for it.
    RunItem item;
    item.cfg.fault.kill_router(100, 0, 3).glitch_rcs(200, 1, 2);
    const std::vector<std::uint8_t> spec = encode_point_spec(item);

    ckpt::Reader header(spec);
    header.take_u32(); // magic
    header.take_u32(); // format version
    const std::uint64_t spec_key = header.take_u64();
    std::vector<std::uint8_t> payload(
        spec.begin() + static_cast<std::ptrdiff_t>(ckpt::kHeaderBytes),
        spec.end());

    // MultiNocConfig's own fields take 98 bytes: 20 i32 (enums
    // included), two bools, a double and the u64 seed. The fault-event
    // count comes next.
    const std::size_t at = 98;
    ckpt::Reader count(payload.data() + at, 8);
    ASSERT_EQ(count.take_u64(), 2u);
    ckpt::Writer huge;
    huge.put_u64(std::uint64_t{1} << 40);
    std::copy(huge.bytes().begin(), huge.bytes().end(),
              payload.begin() + static_cast<std::ptrdiff_t>(at));

    EXPECT_THROW(decode_point_spec(ckpt::seal(spec_key, payload)),
                 ckpt::CkptError);
}

// -- Config hash -----------------------------------------------------------

/** A sweep point off the defaults everywhere: a torus, the Delay
 * metric, a five-event fault plan, bursty transpose traffic and
 * non-default phases. */
RunItem
identity_item()
{
    RunItem item;
    item.cfg = multi_noc_config(4, GatingKind::kCatnap);
    item.cfg.mesh_width = 4;
    item.cfg.mesh_height = 4;
    item.cfg.region_width = 2;
    item.cfg.torus = true;
    item.cfg.congestion.metric = CongestionMetric::kBlockingDelay;
    item.cfg.congestion.threshold = 1.5;
    item.cfg.congestion.window = 16;
    item.cfg.congestion.lcs_hold = 5;
    item.cfg.congestion.rcs_period = 7;
    item.cfg.fault.kill_router(900, 3, 5)
        .kill_link(1200, 2, 6, Direction::kEast)
        .lose_wakes(300, 1, 9, 400)
        .delay_wakes(500, 1, 10, 200, 7)
        .glitch_rcs(700, 2, 3);
    item.cfg.fault.wake_loss_prob = 0.05;
    item.cfg.fault.rcs_glitch_prob = 0.002;
    item.cfg.fault.seed = 7;
    item.traffic.pattern = PatternKind::kTranspose;
    item.traffic.load = 0.07;
    item.traffic.packet_bits = 256;
    item.traffic.mc = MessageClass::kResponseData;
    item.traffic.node_bursts = true;
    item.traffic.burst_on_fraction = 0.4;
    item.traffic.burst_mean_len = 250.0;
    item.params.warmup = 300;
    item.params.measure = 700;
    item.params.drain_max = 5000;
    item.params.voltage_scaling = false;
    item.params.seed = 4242;
    return item;
}

/** One field of a sweep point's identity and a change to it. */
struct FieldEdit
{
    const char *field;
    bool in_config; ///< part of MultiNocConfig, so of config_hash too
    void (*edit)(RunItem &);
};

/** Counts the entries of a field list: a vector counts as its length
 * plus the entries of one element. */
struct FieldCount
{
    int &n;

    template <typename T>
    void
    operator()(const T &x) const
    {
        if constexpr (ckpt::IsSequence<T>::value) {
            ++n;
            if (!x.empty())
                (*this)(x.front());
        } else if constexpr (std::is_class_v<T>) {
            ckpt::fields(*this, x);
        } else {
            ++n;
        }
    }
};

TEST(CkptHash, SensitiveToEveryInterestingField)
{
    // One row per field of MultiNocConfig (fault plan included),
    // SyntheticConfig and RunParams: each must move the point key, and
    // each config field the config hash as well.
    const FieldEdit rows[] = {
        {"mesh_width", true, [](RunItem &i) { ++i.cfg.mesh_width; }},
        {"mesh_height", true, [](RunItem &i) { ++i.cfg.mesh_height; }},
        {"concentration", true, [](RunItem &i) { ++i.cfg.concentration; }},
        {"region_width", true, [](RunItem &i) { ++i.cfg.region_width; }},
        {"torus", true, [](RunItem &i) { i.cfg.torus = !i.cfg.torus; }},
        {"num_subnets", true, [](RunItem &i) { ++i.cfg.num_subnets; }},
        {"total_link_bits", true, [](RunItem &i) { ++i.cfg.total_link_bits; }},
        {"num_vcs", true, [](RunItem &i) { ++i.cfg.num_vcs; }},
        {"vc_depth_flits", true, [](RunItem &i) { ++i.cfg.vc_depth_flits; }},
        {"num_classes", true, [](RunItem &i) { ++i.cfg.num_classes; }},
        {"ni_queue_flits", true, [](RunItem &i) { ++i.cfg.ni_queue_flits; }},
        {"selector", true,
         [](RunItem &i) { i.cfg.selector = SelectorKind::kRoundRobin; }},
        {"gating", true, [](RunItem &i) { i.cfg.gating = GatingKind::kIdle; }},
        {"congestion.metric", true,
         [](RunItem &i) {
             i.cfg.congestion.metric = CongestionMetric::kBufferAvg;
         }},
        {"congestion.threshold", true,
         [](RunItem &i) { i.cfg.congestion.threshold += 0.5; }},
        {"congestion.window", true,
         [](RunItem &i) { ++i.cfg.congestion.window; }},
        {"congestion.lcs_hold", true,
         [](RunItem &i) { ++i.cfg.congestion.lcs_hold; }},
        {"congestion.use_rcs", true,
         [](RunItem &i) {
             i.cfg.congestion.use_rcs = !i.cfg.congestion.use_rcs;
         }},
        {"congestion.rcs_period", true,
         [](RunItem &i) { ++i.cfg.congestion.rcs_period; }},
        {"t_wakeup", true, [](RunItem &i) { ++i.cfg.t_wakeup; }},
        {"wakeup_hidden", true, [](RunItem &i) { ++i.cfg.wakeup_hidden; }},
        {"t_breakeven", true, [](RunItem &i) { ++i.cfg.t_breakeven; }},
        {"t_idle_detect", true, [](RunItem &i) { ++i.cfg.t_idle_detect; }},
        {"seed", true, [](RunItem &i) { ++i.cfg.seed; }},
        {"fault.events count", true,
         [](RunItem &i) { i.cfg.fault.stick_wake(2000, 0, 1); }},
        {"fault.events.kind", true,
         [](RunItem &i) {
             i.cfg.fault.events[4].kind = FaultKind::kWakeStuck;
         }},
        {"fault.events.at", true,
         [](RunItem &i) { ++i.cfg.fault.events[4].at; }},
        {"fault.events.subnet", true,
         [](RunItem &i) { ++i.cfg.fault.events[4].subnet; }},
        {"fault.events.node", true,
         [](RunItem &i) { ++i.cfg.fault.events[4].node; }},
        {"fault.events.port", true,
         [](RunItem &i) { i.cfg.fault.events[4].port = Direction::kWest; }},
        {"fault.events.duration", true,
         [](RunItem &i) { ++i.cfg.fault.events[4].duration; }},
        {"fault.events.delay", true,
         [](RunItem &i) { ++i.cfg.fault.events[4].delay; }},
        {"fault.wake_loss_prob", true,
         [](RunItem &i) { i.cfg.fault.wake_loss_prob += 0.01; }},
        {"fault.rcs_glitch_prob", true,
         [](RunItem &i) { i.cfg.fault.rcs_glitch_prob += 0.001; }},
        {"fault.seed", true, [](RunItem &i) { ++i.cfg.fault.seed; }},
        {"fault.tuning.t_wake_timeout", true,
         [](RunItem &i) { ++i.cfg.fault.tuning.t_wake_timeout; }},
        {"fault.tuning.max_wake_retries", true,
         [](RunItem &i) { ++i.cfg.fault.tuning.max_wake_retries; }},
        {"fault.tuning.backoff_cap_exp", true,
         [](RunItem &i) { ++i.cfg.fault.tuning.backoff_cap_exp; }},
        {"fault.tuning.packet_timeout", true,
         [](RunItem &i) { ++i.cfg.fault.tuning.packet_timeout; }},
        {"fault.tuning.retransmit_delay", true,
         [](RunItem &i) { ++i.cfg.fault.tuning.retransmit_delay; }},
        {"fault.tuning.max_retransmits", true,
         [](RunItem &i) { ++i.cfg.fault.tuning.max_retransmits; }},
        {"traffic.pattern", false,
         [](RunItem &i) { i.traffic.pattern = PatternKind::kShuffle; }},
        {"traffic.load", false, [](RunItem &i) { i.traffic.load += 0.01; }},
        {"traffic.packet_bits", false,
         [](RunItem &i) { ++i.traffic.packet_bits; }},
        {"traffic.mc", false,
         [](RunItem &i) { i.traffic.mc = MessageClass::kForward; }},
        {"traffic.node_bursts", false,
         [](RunItem &i) { i.traffic.node_bursts = !i.traffic.node_bursts; }},
        {"traffic.burst_on_fraction", false,
         [](RunItem &i) { i.traffic.burst_on_fraction += 0.1; }},
        {"traffic.burst_mean_len", false,
         [](RunItem &i) { i.traffic.burst_mean_len += 1.0; }},
        {"params.warmup", false, [](RunItem &i) { ++i.params.warmup; }},
        {"params.measure", false, [](RunItem &i) { ++i.params.measure; }},
        {"params.drain_max", false, [](RunItem &i) { ++i.params.drain_max; }},
        {"params.voltage_scaling", false,
         [](RunItem &i) {
             i.params.voltage_scaling = !i.params.voltage_scaling;
         }},
        {"params.seed", false, [](RunItem &i) { ++i.params.seed; }},
    };

    const RunItem base = identity_item();
    int listed = 0;
    const FieldCount count{listed};
    count(base.cfg);
    count(base.traffic);
    count(base.params);
    EXPECT_EQ(static_cast<int>(std::size(rows)), listed)
        << "every field list entry needs a row here";

    const std::uint64_t cfg0 = ckpt::config_hash(base.cfg);
    const std::uint64_t key0 = point_hash(base);
    for (const FieldEdit &row : rows) {
        RunItem item = base;
        row.edit(item);
        EXPECT_NE(point_hash(item), key0) << row.field;
        if (row.in_config)
            EXPECT_NE(ckpt::config_hash(item.cfg), cfg0) << row.field;
        else
            EXPECT_EQ(ckpt::config_hash(item.cfg), cfg0) << row.field;
    }

    // The same events in another order are another plan.
    RunItem swapped = base;
    std::swap(swapped.cfg.fault.events[0], swapped.cfg.fault.events[1]);
    EXPECT_NE(point_hash(swapped), key0);
    EXPECT_NE(ckpt::config_hash(swapped.cfg), cfg0);

    // And both are stable: equal points hash equal.
    EXPECT_EQ(ckpt::config_hash(identity_item().cfg), cfg0);
    EXPECT_EQ(point_hash(identity_item()), key0);
}

TEST(CkptHash, IdentitiesMatchTheParentCommit)
{
    // Journals, worker images and run checkpoints written by earlier
    // builds are keyed and sealed by these values: a change to any of
    // them strands every such file. The golden gate pins fault-free run
    // hashes only; this pins the sweep-point key and both point images
    // for a point with a fault plan.
    const RunItem item = identity_item();
    EXPECT_EQ(ckpt::config_hash(item.cfg), 0x80f58bf1a6f71075ULL);
    EXPECT_EQ(point_hash(item), 0x7cb1f7e6909f3fb4ULL);

    TempFile f("test_ckpt_identity.bin");
    SyntheticRun(item.cfg, item.traffic, item.params)
        .save_checkpoint(f.path());
    const std::vector<std::uint8_t> image = ckpt::read_file(f.path());
    ckpt::Reader header(image);
    header.take_u32(); // magic
    header.take_u32(); // format version
    EXPECT_EQ(header.take_u64(), 0x1c48173bf5767e46ULL);

    const std::vector<std::uint8_t> spec = encode_point_spec(item);
    EXPECT_EQ(test::digest(spec), 0x91bff14d39abe5f4ULL);
    EXPECT_EQ(point_hash(decode_point_spec(spec)), point_hash(item));

    SyntheticResult res;
    res.config_label = item.cfg.label();
    res.offered_load = item.traffic.load;
    res.offered_rate = -0.0;
    res.accepted_rate = 0.0691;
    res.avg_latency = std::numeric_limits<double>::denorm_min();
    res.avg_net_latency = 17.25;
    res.p50_latency = 15.0;
    res.p99_latency = 61.0;
    res.csc_percent = 42.125;
    res.vdd = 0.75;
    res.power.buffer = 0.5;
    res.power.crossbar = 0.25;
    res.power.control = 0.125;
    res.power.clock = 0.0625;
    res.power.link = 1.5;
    res.power.ni = 0.375;
    res.power.or_net = 0.001;
    res.power_static.buffer = 0.2;
    res.power_static.link = 0.03125;
    res.measured_packets = 12345;
    res.drained = false;
    res.retransmits = 3;
    res.dropped_packets = 1;
    res.faults_fired = 5236;
    res.subnet_failures = 1;
    const std::vector<std::uint8_t> result = encode_point_result(item, res);
    EXPECT_EQ(test::digest(result), 0x717ec1ab2eba6586ULL);

    const SyntheticResult back = decode_point_result(item, result);
    expect_identical(back, res);
    EXPECT_TRUE(std::signbit(back.offered_rate));
}

// -- Container validation --------------------------------------------------

TEST(CkptContainer, SealOpenRoundTrip)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    const auto sealed = ckpt::seal(0x1234, payload);
    EXPECT_EQ(sealed.size(), ckpt::kHeaderBytes + payload.size());
    EXPECT_EQ(ckpt::open(0x1234, sealed), payload);
}

TEST(CkptContainer, RejectsBadMagic)
{
    auto sealed = ckpt::seal(1, {1, 2, 3});
    sealed[0] ^= 0xff;
    try {
        ckpt::open(1, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos);
    }
}

TEST(CkptContainer, RejectsWrongVersion)
{
    auto sealed = ckpt::seal(1, {1, 2, 3});
    sealed[4] += 1; // format version field (little-endian u32 at offset 4)
    try {
        ckpt::open(1, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("format version"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
    }
}

TEST(CkptContainer, RejectsWrongConfigHash)
{
    const auto sealed = ckpt::seal(0xaaaa, {1, 2, 3});
    try {
        ckpt::open(0xbbbb, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("config hash mismatch"),
                  std::string::npos);
    }
}

TEST(CkptContainer, RejectsTruncatedPayloadAndHeader)
{
    auto sealed = ckpt::seal(1, {1, 2, 3, 4, 5, 6, 7, 8});
    auto cut = sealed;
    cut.resize(cut.size() - 3);
    try {
        ckpt::open(1, cut);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }

    auto header_cut = sealed;
    header_cut.resize(10);
    EXPECT_THROW(ckpt::open(1, header_cut), ckpt::CkptError);
}

TEST(CkptContainer, RejectsBitFlipViaCrc)
{
    auto sealed = ckpt::seal(1, std::vector<std::uint8_t>(64, 0x5a));
    sealed[ckpt::kHeaderBytes + 17] ^= 0x08; // single payload bit flip
    try {
        ckpt::open(1, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC mismatch"),
                  std::string::npos);
    }
}

TEST(CkptContainer, FailedWriteKeepsThePreviousFile)
{
    // The side file cannot be created (a directory sits at its path):
    // the write must fail and leave the previous image as it was.
    TempFile f("test_ckpt_atomic.bin");
    const std::vector<std::uint8_t> before = {1, 2, 3};
    ckpt::write_file(f.path(), before);
    const std::string side = f.path() + ".tmp";
    std::filesystem::create_directory(side);
    EXPECT_THROW(ckpt::write_file(f.path(), {4, 5, 6, 7}), ckpt::CkptError);
    std::filesystem::remove(side);
    EXPECT_EQ(ckpt::read_file(f.path()), before);
}

TEST(CkptContainer, WriteLeavesNoSideFile)
{
    TempFile f("test_ckpt_side.bin");
    ckpt::write_file(f.path(), {1, 2, 3});
    ckpt::write_file(f.path(), {4, 5});
    EXPECT_EQ(ckpt::read_file(f.path()), (std::vector<std::uint8_t>{4, 5}));
    EXPECT_FALSE(std::filesystem::exists(f.path() + ".tmp"));
}

// -- Network round-trips ---------------------------------------------------

TEST(CkptNet, SerializeRoundTripIsByteIdentical)
{
    const MultiNocConfig cfg = test_config();
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.15;
    SyntheticTraffic gen(&net, traffic, 7);
    run_traffic(net, gen, 800);

    const std::vector<std::uint8_t> before = net_bytes(net);

    MultiNoc copy(cfg);
    ckpt::Reader r(before);
    copy.Deserialize(r);
    r.expect_exhausted();

    EXPECT_EQ(net_bytes(copy), before);
    EXPECT_EQ(copy.now(), net.now());
}

TEST(CkptNet, FileSaveRestoreRoundTrip)
{
    const MultiNocConfig cfg = faulty_config();
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.20;
    SyntheticTraffic gen(&net, traffic, 11);
    run_traffic(net, gen, 1000); // past the router kill at cycle 900
    ASSERT_NE(net.fault(), nullptr);

    TempFile f("test_ckpt_net.bin");
    ckpt::Save(net, f.path());
    std::unique_ptr<MultiNoc> restored = ckpt::Restore(cfg, f.path());

    EXPECT_EQ(net_bytes(*restored), net_bytes(net));
    ASSERT_NE(restored->fault(), nullptr);
    EXPECT_EQ(restored->fault()->faults_fired(),
              net.fault()->faults_fired());

    // Restoring under a different config must fail on the hash.
    MultiNocConfig other = cfg;
    other.seed += 1;
    EXPECT_THROW(ckpt::Restore(other, f.path()), ckpt::CkptError);

    // Restoring under a config without the fault plan must fail too.
    MultiNocConfig no_fault = cfg;
    no_fault.fault = FaultPlan{};
    no_fault.fault.wake_loss_prob = 0.0;
    EXPECT_THROW(ckpt::Restore(no_fault, f.path()), ckpt::CkptError);
}

TEST(CkptNet, ForkSharesNoMutableState)
{
    const MultiNocConfig cfg = test_config();
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.25;
    SyntheticTraffic gen(&net, traffic, 21);
    run_traffic(net, gen, 600);

    std::unique_ptr<MultiNoc> fork = ckpt::Fork(net);
    const std::vector<std::uint8_t> at_fork = net_bytes(net);
    EXPECT_EQ(net_bytes(*fork), at_fork);

    // Advancing the fork (with its own traffic) must not perturb the
    // original's serialized state in any byte.
    SyntheticTraffic fork_gen(fork.get(), traffic, 22);
    run_traffic(*fork, fork_gen, 500);
    EXPECT_EQ(net_bytes(net), at_fork);
    EXPECT_NE(net_bytes(*fork), at_fork);

    // And the two diverge independently: same steps, different seeds.
    run_traffic(net, gen, 500);
    EXPECT_EQ(net.now(), fork->now());
    EXPECT_NE(net_bytes(net), net_bytes(*fork));
}

TEST(CkptNet, ForkBehavesIdenticallyToOriginal)
{
    // Two identical generators drive the original and the fork through
    // the same future: every byte of evolving state must stay equal. At
    // load 0.02 most routers are out of the live set when the fork is
    // taken (Catnap's asleep upper subnets, or the ungated network's
    // idle routers), so the fork must rebuild their live bytes, idle
    // streaks and residency exactly.
    const struct
    {
        GatingKind gating;
        double load;
    } cases[] = {{GatingKind::kCatnap, 0.30},
                 {GatingKind::kCatnap, 0.02},
                 {GatingKind::kAlwaysOn, 0.02}};
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(gating_kind_name(c.gating)) + " at load " +
                     std::to_string(c.load));
        MultiNocConfig cfg = test_config();
        cfg.gating = c.gating;
        MultiNoc net(cfg);
        SyntheticConfig traffic;
        traffic.load = c.load;
        SyntheticTraffic gen(&net, traffic, 33);
        run_traffic(net, gen, 700);

        std::unique_ptr<MultiNoc> fork = ckpt::Fork(net);
        int retired = 0;
        for (SubnetId s = 0; s < net.num_subnets(); ++s) {
            for (NodeId n = 0; n < net.num_nodes(); ++n) {
                EXPECT_EQ(fork->router(s, n).live(), net.router(s, n).live())
                    << "subnet " << s << " node " << n;
                retired += net.router(s, n).live() ? 0 : 1;
            }
        }
        if (c.load < 0.1) {
            EXPECT_GT(retired, net.num_nodes());
        }
        ckpt::Writer gw;
        gen.Serialize(gw);
        SyntheticTraffic fork_gen(fork.get(), traffic, 33);
        ckpt::Reader gr(gw.bytes());
        fork_gen.Deserialize(gr);

        run_traffic(net, gen, 900);
        run_traffic(*fork, fork_gen, 900);
        EXPECT_EQ(net_bytes(net), net_bytes(*fork));
    }
}

TEST(CkptNet, FinePortRoundTripRestoresPortFsmMidTraffic)
{
    // Per-port gating keeps one power FSM per input port; stop the run at
    // a cycle where asleep, waking and active ports coexist so every
    // PowerDomain state rides through the image.
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kFinePort);
    cfg.seed = 17;
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.05;
    SyntheticTraffic gen(&net, traffic, 5);
    // Ports per PowerState, indexed by the state's value.
    const auto port_states = [](const MultiNoc &n) {
        std::array<int, 3> count{};
        for (NodeId node = 0; node < n.num_nodes(); ++node)
            for (int p = 0; p < kNumPorts; ++p)
                ++count[static_cast<std::size_t>(
                    n.router(0, node).power_state(direction_from_index(p)))];
        return count;
    };
    const auto all_states_present = [](const std::array<int, 3> &count) {
        return std::count(count.begin(), count.end(), 0) == 0;
    };
    run_traffic(net, gen, 300);
    while (net.now() < 3000 && !all_states_present(port_states(net)))
        run_traffic(net, gen, 1);
    const std::array<int, 3> at_save = port_states(net);
    ASSERT_TRUE(all_states_present(at_save)) << "at cycle " << net.now();

    const std::vector<std::uint8_t> image = net_bytes(net);
    MultiNoc copy(cfg);
    ckpt::Reader r(image);
    copy.Deserialize(r);
    r.expect_exhausted();
    EXPECT_EQ(net_bytes(copy), image);
    EXPECT_EQ(port_states(copy), at_save);

    ckpt::Writer gw;
    gen.Serialize(gw);
    SyntheticTraffic copy_gen(&copy, traffic, 5);
    ckpt::Reader gr(gw.bytes());
    copy_gen.Deserialize(gr);

    run_traffic(net, gen, 1500);
    run_traffic(copy, copy_gen, 1500);
    net.finalize_accounting();
    copy.finalize_accounting();
    EXPECT_EQ(net_bytes(copy), net_bytes(net));
    EXPECT_EQ(copy.metrics().ejected_packets(),
              net.metrics().ejected_packets());
    EXPECT_EQ(copy.metrics().total_latency().mean(),
              net.metrics().total_latency().mean());
    const ActivityCounters a = net.total_activity();
    const ActivityCounters b = copy.total_activity();
    EXPECT_GT(a.port_sleep_transitions, 0u);
    EXPECT_EQ(b.port_sleep_transitions, a.port_sleep_transitions);
    EXPECT_EQ(b.port_sleep_cycles, a.port_sleep_cycles);
    EXPECT_EQ(b.port_compensated_sleep_cycles,
              a.port_compensated_sleep_cycles);
    EXPECT_EQ(b.port_net_sleep_savings_cycles,
              a.port_net_sleep_savings_cycles);
    EXPECT_EQ(copy.csc_percent(), net.csc_percent());
}

TEST(CkptNet, PayloadOfAnotherShapeIsRejectedNamingTheContainer)
{
    // Behind the header's config hash, every container the constructor
    // sizes checks the image's count: a payload restored into a network
    // of another shape throws at the first container that differs.
    MultiNocConfig from = multi_noc_config(2, GatingKind::kCatnap);
    from.mesh_width = from.mesh_height = 4;
    from.region_width = 2;
    MultiNoc net(from);
    SyntheticConfig traffic;
    traffic.load = 0.1;
    SyntheticTraffic gen(&net, traffic, 3);
    run_traffic(net, gen, 300);
    const std::vector<std::uint8_t> image = net_bytes(net);

    MultiNocConfig mesh8 = from;
    mesh8.mesh_width = mesh8.mesh_height = 8;
    mesh8.region_width = 4;
    MultiNocConfig vcs2 = from;
    vcs2.num_vcs = 2;
    MultiNocConfig subnets4 = from;
    subnets4.num_subnets = 4;
    const struct
    {
        const char *container;
        MultiNocConfig cfg;
    } cases[] = {{"congestion node sample", mesh8},
                 {"router input FIFO", vcs2},
                 {"per-subnet flit counter", subnets4}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.container);
        MultiNoc other(c.cfg);
        ckpt::Reader r(image);
        try {
            other.Deserialize(r);
            ADD_FAILURE() << "the payload restored into another shape";
        } catch (const ckpt::CkptError &e) {
            EXPECT_NE(std::string(e.what()).find(c.container),
                      std::string::npos)
                << e.what();
        }
    }
}

// -- Mid-run save / resume -------------------------------------------------

/** Short fig10-style phases so the resume tests stay fast. */
RunParams
short_params()
{
    RunParams rp;
    rp.warmup = 300;
    rp.measure = 600;
    rp.drain_max = 4000;
    rp.seed = 4242;
    return rp;
}

TEST(CkptResume, WarmupCheckpointReproducesUninterruptedRun)
{
    const MultiNocConfig cfg = test_config();
    SyntheticConfig traffic;
    traffic.load = 0.12;
    const RunParams rp = short_params();

    const SyntheticResult uninterrupted = run_synthetic(cfg, traffic, rp);

    TempFile f("test_ckpt_warm.bin");
    SyntheticRun first(cfg, traffic, rp);
    first.run_warmup();
    first.save_checkpoint(f.path());

    auto resumed =
        SyntheticRun::restore_checkpoint(cfg, traffic, rp, f.path());
    EXPECT_EQ(resumed->now(), rp.warmup);
    expect_identical(resumed->finish(), uninterrupted);
}

TEST(CkptResume, MidMeasurementAutosaveReproducesUninterruptedRun)
{
    MultiNocConfig cfg = faulty_config();
    SyntheticConfig traffic;
    traffic.load = 0.18;
    const RunParams rp = short_params();

    TempFile f("test_ckpt_mid.bin");
    SyntheticRun first(cfg, traffic, rp);
    // Saves at cycles 500 and 750: the last overwrite lands
    // mid-measurement (warmup 300 + measure 600 = 900).
    first.set_autosave(f.path(), 250);
    first.run_warmup();
    const SyntheticResult uninterrupted = first.finish();

    auto resumed =
        SyntheticRun::restore_checkpoint(cfg, traffic, rp, f.path());
    EXPECT_EQ(resumed->now(), Cycle{750});
    resumed->run_warmup(); // no-op past warm-up
    expect_identical(resumed->finish(), uninterrupted);

    // A resumed run under different phase lengths must be rejected.
    RunParams other = rp;
    other.measure += 1;
    EXPECT_THROW(
        SyntheticRun::restore_checkpoint(cfg, traffic, other, f.path()),
        ckpt::CkptError);
}

// -- Closed-loop CMP system ------------------------------------------------

TEST(CkptApp, CmpSystemRoundTripAndBehavioralIdentity)
{
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    const WorkloadMix mix = medium_heavy_mix();

    CmpSystem a(cfg, mix, SystemParams());
    a.run(500);

    ckpt::Writer w;
    a.Serialize(w);
    // The golden gate runs no CMP: this pins the image's bytes, the
    // deferred-send queue included.
    EXPECT_EQ(test::digest(w.bytes()), 0xf599524b939141d6ULL);

    CmpSystem b(cfg, mix, SystemParams());
    ckpt::Reader r(w.bytes());
    b.Deserialize(r);
    r.expect_exhausted();

    ckpt::Writer wb;
    b.Serialize(wb);
    EXPECT_EQ(wb.bytes(), w.bytes());

    // Same future from the restored state: advance both and compare
    // bytes and headline metrics.
    a.run(500);
    b.run(500);
    ckpt::Writer wa2, wb2;
    a.Serialize(wa2);
    b.Serialize(wb2);
    EXPECT_EQ(wa2.bytes(), wb2.bytes());
    EXPECT_EQ(a.total_retired(), b.total_retired());
    EXPECT_EQ(a.misses_completed(), b.misses_completed());
}

// ---------------------------------------------------------------------
// Sweep journal (ckpt/journal.h, DESIGN.md §15)
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
bytes_of(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(CkptJournal, RoundTripsRecordsInAppendOrder)
{
    std::vector<std::uint8_t> buf;
    ckpt::append_record(buf, 0x1111, bytes_of("first"));
    ckpt::append_record(buf, 0x2222, bytes_of(""));
    ckpt::append_record(buf, 0x3333, bytes_of("third payload"));

    const ckpt::JournalScan scan = ckpt::scan_journal(buf);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.discarded_bytes, 0u);
    EXPECT_EQ(scan.valid_bytes, buf.size());
    EXPECT_EQ(scan.records[0].key, 0x1111u);
    EXPECT_EQ(scan.records[0].payload, bytes_of("first"));
    EXPECT_EQ(scan.records[1].key, 0x2222u);
    EXPECT_TRUE(scan.records[1].payload.empty());
    EXPECT_EQ(scan.records[2].key, 0x3333u);
    EXPECT_EQ(scan.records[2].payload, bytes_of("third payload"));
}

TEST(CkptJournal, TornTailKeepsEveryIntactPrefixRecord)
{
    // A supervisor killed mid-append leaves a partial final record at
    // every possible cut point; the scan must keep both whole records
    // and report exactly the torn bytes as discarded.
    std::vector<std::uint8_t> whole;
    ckpt::append_record(whole, 1, bytes_of("alpha"));
    ckpt::append_record(whole, 2, bytes_of("beta"));
    const std::size_t two = whole.size();
    ckpt::append_record(whole, 3, bytes_of("gamma"));

    for (std::size_t cut = two; cut < whole.size(); ++cut) {
        const ckpt::JournalScan scan = ckpt::scan_journal(whole.data(), cut);
        ASSERT_EQ(scan.records.size(), 2u) << "cut=" << cut;
        EXPECT_EQ(scan.valid_bytes, two);
        EXPECT_EQ(scan.discarded_bytes, cut - two);
    }
}

TEST(CkptJournal, CorruptionStopsTheScanAtTheDamage)
{
    std::vector<std::uint8_t> buf;
    ckpt::append_record(buf, 1, bytes_of("keep me"));
    const std::size_t first = buf.size();
    ckpt::append_record(buf, 2, bytes_of("damaged"));
    ckpt::append_record(buf, 3, bytes_of("unreachable"));

    // Flip one payload byte of the middle record: its CRC fails, and
    // the intact third record after it must NOT be trusted either.
    buf[first + ckpt::kJournalRecordHeaderBytes] ^= 0x01;
    const ckpt::JournalScan scan = ckpt::scan_journal(buf);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].key, 1u);
    EXPECT_EQ(scan.valid_bytes, first);
    EXPECT_EQ(scan.discarded_bytes, buf.size() - first);

    // Bad magic stops the scan the same way.
    std::vector<std::uint8_t> bad;
    ckpt::append_record(bad, 7, bytes_of("x"));
    const std::size_t one = bad.size();
    ckpt::append_record(bad, 8, bytes_of("y"));
    bad[one] ^= 0xff;
    EXPECT_EQ(ckpt::scan_journal(bad).records.size(), 1u);
}

TEST(CkptJournal, WriterAppendModePreservesExistingRecords)
{
    const std::string path =
        ::testing::TempDir() + "catnap_journal_test.bin";
    std::remove(path.c_str());
    {
        ckpt::JournalWriter w(path, ckpt::JournalWriter::Mode::kTruncate);
        w.append(10, bytes_of("one"));
    }
    {
        ckpt::JournalWriter w(path, ckpt::JournalWriter::Mode::kAppend);
        w.append(20, bytes_of("two"));
    }
    ckpt::JournalScan scan = ckpt::load_journal(path);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].key, 10u);
    EXPECT_EQ(scan.records[1].key, 20u);

    // Truncate mode discards history.
    {
        ckpt::JournalWriter w(path, ckpt::JournalWriter::Mode::kTruncate);
        w.append(30, bytes_of("three"));
    }
    scan = ckpt::load_journal(path);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].key, 30u);
    std::remove(path.c_str());
}

TEST(CkptJournal, MissingFileLoadsAsEmptyScan)
{
    const ckpt::JournalScan scan =
        ckpt::load_journal("/nonexistent/dir/journal.bin");
    EXPECT_TRUE(scan.records.empty());
    EXPECT_EQ(scan.valid_bytes, 0u);
    EXPECT_EQ(scan.discarded_bytes, 0u);
}

} // namespace
} // namespace catnap
