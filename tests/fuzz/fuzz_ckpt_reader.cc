/**
 * @file
 * libFuzzer harness for the checkpoint container reader surfaces
 * (DESIGN.md §13/§15): every byte stream a worker, journal, or
 * checkpoint file could hand us must either decode cleanly or throw
 * ckpt::CkptError — never read out of bounds, never crash, never
 * allocate from unvalidated lengths.
 *
 * Surfaces exercised per input:
 *   1. ckpt::Reader take_* sequences, ops chosen by the data itself;
 *   2. ckpt::open() container validation (magic/version/hash/CRC),
 *      then a Reader drive over any payload that survives;
 *   3. decode_point_spec(): the full MultiNocConfig/traffic/params
 *      wire codec behind the sealed spec container;
 *   4. scan_journal(): the torn-tail-tolerant journal scan, plus a
 *      re-append/re-scan round-trip over whatever it accepted;
 *   5. MultiNoc::Deserialize() of a fixed small faulted network
 *      (fuzz_network.h) over the raw bytes: every component decoder,
 *      field lists and exact-count checks included.
 *
 * Build with -fsanitize=fuzzer,address,undefined (CATNAP_FUZZ=ON,
 * Clang only — see tests/fuzz/CMakeLists.txt). Seed corpus comes from
 * fuzz_seed_corpus, which writes real sealed images so coverage starts
 * past the magic/CRC gates instead of fuzzing them from zero.
 */
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "exec/point_codec.h"
#include "fuzz_network.h"

using namespace catnap;

namespace {

/** Consumes the stream with a take_* sequence scripted by the stream
 * itself; every path must end in clean exhaustion or CkptError. */
void
drive_reader(ckpt::Reader &r)
{
    try {
        for (;;) {
            switch (r.take_u8() % 8) {
              case 0: (void)r.take_u8(); break;
              case 1: (void)r.take_u32(); break;
              case 2: (void)r.take_u64(); break;
              case 3: (void)r.take_i32(); break;
              case 4: (void)r.take_i64(); break;
              case 5: (void)r.take_double(); break;
              case 6: (void)r.take_bool(); break;
              default: (void)r.take_string(); break;
            }
        }
    } catch (const ckpt::CkptError &) {
        // Expected terminal state for malformed input.
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::vector<std::uint8_t> bytes(data, data + size);

    // 1. Raw field reader over arbitrary bytes.
    {
        ckpt::Reader r(bytes);
        drive_reader(r);
    }

    // 2. Container validation; drive any payload that passes.
    try {
        const std::vector<std::uint8_t> payload = ckpt::open(0, bytes);
        ckpt::Reader r(payload);
        drive_reader(r);
    } catch (const ckpt::CkptError &) {
    }

    // 3. The point-spec codec (seed corpus contains valid images, so
    // the fuzzer mutates *past* the CRC gate too).
    try {
        (void)decode_point_spec(bytes);
    } catch (const ckpt::CkptError &) {
    }

    // 4. Journal scan never throws; accepted records must re-append
    // and re-scan to the same set (round-trip property).
    const ckpt::JournalScan scan = ckpt::scan_journal(bytes);
    if (scan.valid_bytes + scan.discarded_bytes != size)
        __builtin_trap();
    std::vector<std::uint8_t> rebuilt;
    for (const ckpt::JournalRecord &rec : scan.records)
        ckpt::append_record(rebuilt, rec.key, rec.payload);
    const ckpt::JournalScan again = ckpt::scan_journal(rebuilt);
    if (again.records.size() != scan.records.size() ||
        again.discarded_bytes != 0)
        __builtin_trap();

    // 5. A network payload (the seed corpus holds one taken mid-traffic).
    try {
        MultiNoc net(fuzz_network_config());
        ckpt::Reader r(bytes);
        net.Deserialize(r);
    } catch (const ckpt::CkptError &) {
    }

    return 0;
}
