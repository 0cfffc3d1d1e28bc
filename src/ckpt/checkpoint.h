/**
 * @file
 * Versioned checkpoint container and the Save/Restore/Fork entry points
 * (DESIGN.md §13).
 *
 * On-disk layout (all integers little-endian):
 *
 *   offset  size  field
 *        0     4  magic          0x50414e43 ("CNAP")
 *        4     4  format version (kFormatVersion)
 *        8     8  config hash    FNV-1a over the full MultiNocConfig
 *       16     8  payload length in bytes
 *       24     4  CRC32 (IEEE 802.3) of the payload
 *       28     -  payload        the ckpt::Writer byte stream
 *
 * open() validates magic, version, config hash, length, and CRC — in
 * that order, each with a precise CkptError — before a single payload
 * byte is decoded, so a truncated or bit-flipped file can never produce
 * a half-restored simulator.
 *
 * The config hash mixes MultiNocConfig's field list (ckpt/schema.h),
 * the whole fault plan included: a checkpoint can only be restored into
 * the exact configuration that produced it. Run checkpoints, which also
 * depend on the traffic and phase lengths, are sealed under
 * ckpt::run_identity instead.
 */
#ifndef CATNAP_CKPT_CHECKPOINT_H
#define CATNAP_CKPT_CHECKPOINT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/archive.h"

namespace catnap {

struct MultiNocConfig;
class MultiNoc;

namespace ckpt {

/** File magic: "CNAP" read as a little-endian u32. */
constexpr std::uint32_t kMagic = 0x50414e43u;

/** Bump on any incompatible payload or header change. */
constexpr std::uint32_t kFormatVersion = 1;

/** Container header size in bytes (see @file for the layout). */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;

/**
 * 64-bit FNV-1a accumulator used for config hashing. Field order is the
 * hash schema: ckpt::mix walks a type's one field list (ckpt/fields.h),
 * so no field is skipped and two configs collide only if they are
 * semantically identical.
 */
class Fnv1a
{
  public:
    void
    mix_u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void mix_u32(std::uint32_t v) { mix_u64(v); }
    void mix_i32(std::int32_t v)
    {
        mix_u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    }
    void mix_bool(bool v) { mix_u64(v ? 1u : 0u); }

    void
    mix_double(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix_u64(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The config hash stored in (and demanded of) network checkpoints:
 * every MultiNocConfig field, fault plan included. */
std::uint64_t config_hash(const MultiNocConfig &cfg);

/** Wraps @p payload in the magic/version/hash/length/CRC container. */
std::vector<std::uint8_t> seal(std::uint64_t config_hash,
                               const std::vector<std::uint8_t> &payload);

/**
 * Validates a sealed container and returns its payload. Throws CkptError
 * naming exactly what is wrong: not a checkpoint (magic), unsupported
 * format version, config-hash mismatch, truncation, or CRC mismatch.
 */
std::vector<std::uint8_t> open(std::uint64_t expected_config_hash,
                               const std::uint8_t *data, std::size_t size);

inline std::vector<std::uint8_t>
open(std::uint64_t expected_config_hash,
     const std::vector<std::uint8_t> &bytes)
{
    return open(expected_config_hash, bytes.data(), bytes.size());
}

/** Replaces @p path with @p bytes atomically: writes PATH.tmp, then
 * renames it over @p path, so a process killed mid-write leaves the
 * previous file whole. Throws CkptError on any I/O failure. */
void write_file(const std::string &path,
                const std::vector<std::uint8_t> &bytes);

/** Reads @p path fully; throws CkptError if it cannot be read. */
std::vector<std::uint8_t> read_file(const std::string &path);

// -- Entry points ----------------------------------------------------------

/** Serializes @p net into a sealed checkpoint file at @p path. */
void Save(const MultiNoc &net, const std::string &path);

/**
 * Rebuilds a MultiNoc from the checkpoint at @p path. @p cfg must be the
 * exact configuration the checkpoint was saved under (enforced via the
 * config hash); the network is constructed from it and its data state
 * overwritten from the validated payload.
 */
std::unique_ptr<MultiNoc> Restore(const MultiNocConfig &cfg,
                                  const std::string &path);

/**
 * In-memory deep copy: serializes @p net and restores into a freshly
 * constructed network with the same config. The fork shares no mutable
 * state with the original — advancing one never perturbs the other.
 */
std::unique_ptr<MultiNoc> Fork(const MultiNoc &net);

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_CHECKPOINT_H
