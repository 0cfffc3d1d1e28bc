/**
 * @file
 * Content-addressed, persistent result cache: the sweep service's
 * cache (DESIGN.md §17) and run_sweep()'s --journal file (§15).
 *
 * Every cached entry is one simulation point's SyntheticResult payload
 * (the exec/point_codec.h `put_synth_result` byte stream) keyed by the
 * point's 64-bit "PNT1" identity hash — the same key that names journal
 * records and seals worker result files, so a cache entry can never be
 * served for a different point than the one that produced it.
 *
 * Persistence reuses the §15 append-only journal container verbatim
 * ("CJL1" records, CRC-checked, flushed per append): a cache file *is*
 * a sweep journal. On startup the whole file is rebuilt into an
 * in-memory index via scan_journal(), which tolerates a torn tail — a
 * daemon SIGKILLed mid-append loses at most the record being written,
 * never the cache. When the scan discards tail bytes, the file is
 * compacted (the intact records are written to PATH.tmp, which is
 * then renamed over PATH) before appending resumes, so a torn tail can
 * never strand later appends behind unreadable bytes, and a process
 * killed mid-compaction keeps the old file.
 *
 * Eviction: with a non-zero byte bound, inserting past the bound
 * evicts the oldest entries first (insertion order, deterministic)
 * until the cache fits, then compacts the file. The entry being
 * inserted is never evicted by its own insertion.
 *
 * Not thread-safe: the server and run_sweep() serialise access behind
 * their own mutex. replay_result() and store_result() are the one
 * codec between an entry and its SyntheticResult.
 */
#ifndef CATNAP_SERVE_CACHE_H
#define CATNAP_SERVE_CACHE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/journal.h"

namespace catnap {

struct SyntheticResult;

namespace serve {

/** Policy for one ResultCache. */
struct CacheConfig
{
    /** Journal-format backing file; empty = memory-only (no restart
     * survival, still bounded and single-flight guarded). */
    std::string path;

    /** Byte bound over stored records (header + payload); 0 = unbounded.
     * Exceeding it evicts oldest-first, then compacts the file. */
    std::uint64_t max_bytes = 0;
};

/**
 * The cache: an insertion-ordered map from point hash to result
 * payload, mirrored to an append-only journal file.
 */
class ResultCache
{
  public:
    /** Opens (and scans) the backing file per @p cfg. Throws
     * ckpt::CkptError when the file exists but cannot be rewritten or
     * appended to; a missing file starts an empty cache. */
    explicit ResultCache(const CacheConfig &cfg);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** True when @p key is cached; copies its payload to @p payload. */
    bool lookup(std::uint64_t key, std::vector<std::uint8_t> &payload) const;

    /** True when @p key is cached. */
    bool contains(std::uint64_t key) const;

    /**
     * Inserts (or refreshes) @p key -> @p payload, appends it to the
     * backing file, and evicts oldest-first past the byte bound.
     * Re-inserting an existing key replaces its payload and moves it to
     * the newest eviction slot.
     */
    void insert(std::uint64_t key, const std::vector<std::uint8_t> &payload);

    /** Entries currently held. */
    std::size_t entries() const { return index_.size(); }

    /** Bytes of all held records (journal header + payload each). */
    std::uint64_t bytes() const { return bytes_; }

    /** Entries evicted over this cache's lifetime. */
    std::uint64_t evicted() const { return evicted_; }

    /** Intact records rebuilt from the backing file at startup. */
    std::uint64_t restored() const { return restored_; }

    /** Torn/corrupt tail bytes the startup scan discarded. */
    std::uint64_t restored_discarded() const { return discarded_; }

    const std::string &path() const { return cfg_.path; }

  private:
    void evict_to_bound(std::uint64_t protect_key);
    void compact();

    CacheConfig cfg_;
    std::map<std::uint64_t, std::vector<std::uint8_t>> index_;
    std::deque<std::uint64_t> order_; ///< insertion order, oldest first
    std::uint64_t bytes_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t restored_ = 0;
    std::uint64_t discarded_ = 0;
    std::unique_ptr<ckpt::JournalWriter> writer_;
};

/**
 * Decodes the entry under @p key into @p out. False, with @p out
 * untouched, when the key is absent or its payload does not decode to
 * exactly one SyntheticResult with no bytes left over: a damaged
 * record is re-executed, never replayed.
 */
bool replay_result(const ResultCache &cache, std::uint64_t key,
                   SyntheticResult &out);

/** Encodes @p res and inserts it under @p key (ResultCache::insert). */
void store_result(ResultCache &cache, std::uint64_t key,
                  const SyntheticResult &res);

} // namespace serve
} // namespace catnap

#endif // CATNAP_SERVE_CACHE_H
