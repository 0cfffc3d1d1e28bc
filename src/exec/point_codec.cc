#include "exec/point_codec.h"

#include <cstdio>

#include "ckpt/checkpoint.h"
#include "ckpt/schema.h"

namespace catnap {

namespace {

/** Domain hash sealing point-spec images: a spec is not a checkpoint
 * and not a result, and must never open as either. */
std::uint64_t
spec_hash()
{
    ckpt::Fnv1a h;
    h.mix_u32(0x31435053u); // "SPC1"
    return h.value();
}

} // namespace

std::uint64_t
point_hash(const RunItem &item)
{
    // Domain tag "PNT1": a point identity is neither a bare-network
    // hash nor a run-checkpoint hash and must never match either.
    return ckpt::run_identity(0x31544e50u, item.cfg, item.traffic,
                              item.params);
}

std::string
key_hex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

std::vector<std::uint8_t>
encode_point_spec(const RunItem &item)
{
    ckpt::Writer w;
    ckpt::put(w, item.cfg);
    ckpt::put(w, item.traffic);
    ckpt::put(w, item.params);
    return ckpt::seal(spec_hash(), w.bytes());
}

RunItem
decode_point_spec(const std::vector<std::uint8_t> &bytes)
{
    const std::vector<std::uint8_t> payload =
        ckpt::open(spec_hash(), bytes);
    ckpt::Reader r(payload);
    RunItem item;
    item.cfg = ckpt::take<MultiNocConfig>(r);
    item.traffic = ckpt::take<SyntheticConfig>(r);
    item.params = ckpt::take<RunParams>(r);
    r.expect_exhausted();
    return item;
}

std::vector<std::uint8_t>
encode_point_result(const RunItem &item, const SyntheticResult &res)
{
    ckpt::Writer w;
    ckpt::put(w, res);
    return ckpt::seal(point_hash(item), w.bytes());
}

SyntheticResult
decode_point_result(const RunItem &item,
                    const std::vector<std::uint8_t> &bytes)
{
    const std::vector<std::uint8_t> payload =
        ckpt::open(point_hash(item), bytes);
    ckpt::Reader r(payload);
    const SyntheticResult res = ckpt::take<SyntheticResult>(r);
    r.expect_exhausted();
    return res;
}

} // namespace catnap
