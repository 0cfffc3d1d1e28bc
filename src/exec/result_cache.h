/**
 * @file
 * Content-addressed, persistent result cache: run_sweep()'s --journal
 * file (DESIGN.md §15).
 *
 * Every entry is one simulation point's SyntheticResult payload (the
 * `ckpt::put` byte stream of its field list, ckpt/schema.h) keyed by the
 * point's 64-bit "PNT1" identity hash — the same key that seals worker
 * result files, so an entry can never be replayed for a different point
 * than the one that produced it.
 *
 * Persistence is the append-only journal container of ckpt/journal.h
 * ("CJL1" records, CRC-checked, flushed per append). On open the whole
 * file is rebuilt into an in-memory index via load_journal(), which
 * tolerates a torn tail — a sweep SIGKILLed mid-append loses at most
 * the record being written. When the scan discards tail bytes or finds
 * a key recorded twice, the file is compacted (the intact records are
 * written to PATH.tmp, which is then renamed over PATH) before
 * appending resumes, so a torn tail can never strand later appends
 * behind unreadable bytes, and a process killed mid-compaction keeps
 * the old file.
 *
 * One sweep per file: the cache holds an exclusive flock(2) on PATH for
 * its lifetime, so a second sweep on the same file fails when it opens
 * instead of emptying it or interleaving records with the first.
 *
 * Not thread-safe: run_sweep() serialises inserts behind its own mutex.
 * replay_result() and store_result() are the one codec between an
 * entry and its SyntheticResult.
 */
#ifndef CATNAP_EXEC_RESULT_CACHE_H
#define CATNAP_EXEC_RESULT_CACHE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/journal.h"

namespace catnap {

struct SyntheticResult;

/**
 * The cache: an insertion-ordered map from point hash to result
 * payload, mirrored to an append-only journal file.
 */
class ResultCache
{
  public:
    /**
     * Opens @p path, creating it, and locks it. kAppend rebuilds the
     * index from the file's intact records; kTruncate empties the file
     * and starts over. Throws ckpt::CkptError when the file cannot be
     * opened, locked, emptied or rewritten, and when another sweep holds
     * it ("journal: 'PATH' is in use by another sweep").
     */
    ResultCache(const std::string &path, ckpt::JournalWriter::Mode mode);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** True when @p key is cached; copies its payload to @p payload. */
    bool lookup(std::uint64_t key, std::vector<std::uint8_t> &payload) const;

    /**
     * Inserts (or replaces) @p key -> @p payload and appends it to the
     * file. A re-inserted key moves to the end of the insertion order,
     * the order a later compaction writes.
     */
    void insert(std::uint64_t key, const std::vector<std::uint8_t> &payload);

  private:
    class Lock;

    void compact();

    std::string path_;
    std::map<std::uint64_t, std::vector<std::uint8_t>> index_;
    std::vector<std::uint64_t> order_; ///< insertion order, oldest first
    std::unique_ptr<Lock> lock_;       ///< held on the file path_ names
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

} // namespace catnap

#endif // CATNAP_EXEC_RESULT_CACHE_H
