/**
 * @file
 * Seed-corpus generator for fuzz_ckpt_reader: writes genuinely valid
 * sealed images (the same fixtures test_ckpt builds) into the corpus
 * directory so the fuzzer starts with inputs that pass the magic/
 * version/hash/CRC gates and immediately mutates the *field decoders*
 * instead of spending its budget rediscovering a 4-byte magic.
 *
 * Usage: fuzz_seed_corpus CORPUS_DIR
 */
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "ckpt/schema.h"
#include "exec/point_codec.h"
#include "exec/sweep_runner.h"
#include "fuzz_network.h"
#include "noc/multinoc.h"
#include "traffic/synthetic.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s CORPUS_DIR\n", argv[0]);
        return 2;
    }
    const std::string dir = argv[1];

    RunItem item;
    item.cfg = multi_noc_config(2);
    item.traffic.load = 0.1;
    item.cfg.fault.kill_router(100, 0, 3); // non-empty fault plan arm
    item.params.warmup = 200;
    item.params.measure = 600;

    // A sealed point spec: full config/traffic/params codec.
    ckpt::write_file(dir + "/spec.bin", encode_point_spec(item));

    // A sealed point result (default-constructed metrics are fine —
    // the fuzzer cares about the wire shape, not the physics).
    SyntheticResult res;
    res.config_label = "seed";
    ckpt::write_file(dir + "/result.bin",
                     encode_point_result(item, res));

    // A three-record journal, one payload being a real result stream.
    ckpt::Writer result_stream;
    ckpt::put(result_stream, res);
    std::vector<std::uint8_t> journal;
    ckpt::append_record(journal, point_hash(item), result_stream.bytes());
    ckpt::append_record(journal, 0x1111, {0x01, 0x02, 0x03});
    ckpt::append_record(journal, 0x2222, {});
    ckpt::write_file(dir + "/journal.bin", journal);

    // A bare field stream (no container) for the raw Reader surface.
    ckpt::Writer fields;
    fields.put_u8(7);
    fields.put_u32(0xdeadbeefu);
    fields.put_u64(42);
    fields.put_double(0.25);
    fields.put_bool(true);
    fields.put_string("seed corpus");
    ckpt::write_file(dir + "/fields.bin", fields.bytes());

    // A raw network payload mid-traffic, past the router kill and inside
    // both wake windows, for the MultiNoc::Deserialize surface.
    MultiNoc net(fuzz_network_config());
    SyntheticConfig traffic;
    traffic.load = 0.2;
    SyntheticTraffic gen(&net, traffic, 5);
    while (net.now() < 300) {
        gen.step(net.now());
        net.tick();
    }
    ckpt::Writer payload;
    net.Serialize(payload);
    ckpt::write_file(dir + "/network.bin", payload.bytes());

    std::printf("wrote 5 seed inputs to %s\n", dir.c_str());
    return 0;
}
