#include "ckpt/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "ckpt/schema.h"
#include "noc/multinoc.h"

namespace catnap {
namespace ckpt {

namespace {

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
hex32(std::uint32_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(8) << std::setfill('0') << v;
    return os.str();
}

} // namespace

std::uint64_t
config_hash(const MultiNocConfig &cfg)
{
    Fnv1a h;
    mix(h, cfg);
    return h.value();
}

std::vector<std::uint8_t>
seal(std::uint64_t config_hash, const std::vector<std::uint8_t> &payload)
{
    Writer header;
    header.put_u32(kMagic);
    header.put_u32(kFormatVersion);
    header.put_u64(config_hash);
    header.put_u64(payload.size());
    header.put_u32(crc32(payload.data(), payload.size()));

    std::vector<std::uint8_t> out = header.bytes();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::vector<std::uint8_t>
open(std::uint64_t expected_config_hash, const std::uint8_t *data,
     std::size_t size)
{
    if (size < kHeaderBytes)
        throw CkptError("checkpoint: truncated — " + std::to_string(size) +
                        " byte(s) is smaller than the " +
                        std::to_string(kHeaderBytes) + "-byte header");

    Reader header(data, kHeaderBytes);
    const std::uint32_t magic = header.take_u32();
    if (magic != kMagic)
        throw CkptError("checkpoint: bad magic " + hex32(magic) +
                        " (expected " + hex32(kMagic) +
                        ") — not a Catnap checkpoint file");

    const std::uint32_t version = header.take_u32();
    if (version != kFormatVersion)
        throw CkptError("checkpoint: format version " +
                        std::to_string(version) +
                        " is not supported (this build reads version " +
                        std::to_string(kFormatVersion) + ")");

    const std::uint64_t stored_hash = header.take_u64();
    if (stored_hash != expected_config_hash)
        throw CkptError(
            "checkpoint: config hash mismatch — file was saved under " +
            hex64(stored_hash) + " but the current configuration hashes to " +
            hex64(expected_config_hash) +
            "; restore requires the identical configuration "
            "(topology, policies, seeds, and fault plan)");

    const std::uint64_t payload_len = header.take_u64();
    const std::uint32_t stored_crc = header.take_u32();

    const std::size_t available = size - kHeaderBytes;
    if (payload_len != available)
        throw CkptError("checkpoint: truncated — header declares " +
                        std::to_string(payload_len) +
                        " payload byte(s) but " + std::to_string(available) +
                        " are present");

    const std::uint8_t *payload = data + kHeaderBytes;
    const std::uint32_t computed_crc =
        crc32(payload, static_cast<std::size_t>(payload_len));
    if (computed_crc != stored_crc)
        throw CkptError("checkpoint: CRC mismatch — stored " +
                        hex32(stored_crc) + ", computed " +
                        hex32(computed_crc) + "; the payload is corrupt");

    return std::vector<std::uint8_t>(
        payload, payload + static_cast<std::size_t>(payload_len));
}

void
write_file(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    // Write a side file and rename it over the path: a process killed
    // mid-write leaves the previous file whole, never a torn one.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw CkptError("checkpoint: cannot open '" + tmp +
                            "' for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out)
            throw CkptError("checkpoint: write to '" + tmp + "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw CkptError("checkpoint: cannot replace '" + path + "'");
}

std::vector<std::uint8_t>
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CkptError("checkpoint: cannot open '" + path +
                        "' for reading");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throw CkptError("checkpoint: read from '" + path + "' failed");
    return bytes;
}

void
Save(const MultiNoc &net, const std::string &path)
{
    Writer w;
    net.Serialize(w);
    write_file(path, seal(config_hash(net.config()), w.bytes()));
}

std::unique_ptr<MultiNoc>
Restore(const MultiNocConfig &cfg, const std::string &path)
{
    const std::vector<std::uint8_t> payload =
        open(config_hash(cfg), read_file(path));
    auto net = std::make_unique<MultiNoc>(cfg);
    Reader r(payload);
    net->Deserialize(r);
    r.expect_exhausted();
    return net;
}

std::unique_ptr<MultiNoc>
Fork(const MultiNoc &net)
{
    Writer w;
    net.Serialize(w);
    auto copy = std::make_unique<MultiNoc>(net.config());
    Reader r(w.bytes());
    copy->Deserialize(r);
    r.expect_exhausted();
    return copy;
}

} // namespace ckpt
} // namespace catnap
