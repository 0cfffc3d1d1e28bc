#include "serve/cache.h"

#include <algorithm>
#include <cstdio>

#include "exec/point_codec.h"

namespace catnap {
namespace serve {

namespace {

/** On-disk cost of one record: fixed header plus payload. */
std::uint64_t
record_bytes(const std::vector<std::uint8_t> &payload)
{
    return static_cast<std::uint64_t>(ckpt::kJournalRecordHeaderBytes) +
           static_cast<std::uint64_t>(payload.size());
}

} // namespace

ResultCache::ResultCache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg_.path.empty())
        return;

    const ckpt::JournalScan scan = ckpt::load_journal(cfg_.path);
    discarded_ = scan.discarded_bytes;
    for (const ckpt::JournalRecord &rec : scan.records) {
        auto [it, fresh] = index_.emplace(rec.key, rec.payload);
        if (fresh) {
            order_.push_back(rec.key);
        } else {
            // Last record wins (a re-insert after eviction re-appends).
            bytes_ -= record_bytes(it->second);
            it->second = rec.payload;
        }
        bytes_ += record_bytes(rec.payload);
        ++restored_;
    }

    // Apply the bound to whatever was restored, then open for append.
    // A torn tail (or any eviction) forces a compaction so the on-disk
    // file matches the index exactly before new appends land.
    const std::uint64_t evicted_before = evicted_;
    evict_to_bound(0);
    if (discarded_ > 0 || evicted_ != evicted_before ||
        scan.records.size() != index_.size()) {
        compact();
    } else {
        writer_ = std::make_unique<ckpt::JournalWriter>(
            cfg_.path, ckpt::JournalWriter::Mode::kAppend);
    }
}

bool
ResultCache::lookup(std::uint64_t key,
                    std::vector<std::uint8_t> &payload) const
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    payload = it->second;
    return true;
}

bool
ResultCache::contains(std::uint64_t key) const
{
    return index_.find(key) != index_.end();
}

void
ResultCache::insert(std::uint64_t key,
                    const std::vector<std::uint8_t> &payload)
{
    auto [it, fresh] = index_.emplace(key, payload);
    if (fresh) {
        order_.push_back(key);
    } else {
        bytes_ -= record_bytes(it->second);
        it->second = payload;
        // Move to the newest eviction slot.
        const auto pos = std::find(order_.begin(), order_.end(), key);
        if (pos != order_.end())
            order_.erase(pos);
        order_.push_back(key);
    }
    bytes_ += record_bytes(payload);

    if (writer_ != nullptr)
        writer_->append(key, payload);

    const std::uint64_t evicted_before = evicted_;
    evict_to_bound(key);
    if (evicted_ != evicted_before)
        compact();
}

void
ResultCache::evict_to_bound(std::uint64_t protect_key)
{
    if (cfg_.max_bytes == 0)
        return;
    while (bytes_ > cfg_.max_bytes && !order_.empty()) {
        const std::uint64_t victim = order_.front();
        if (victim == protect_key && order_.size() == 1)
            break; // never evict the entry being inserted
        order_.pop_front();
        const auto it = index_.find(victim);
        if (it == index_.end())
            continue;
        bytes_ -= record_bytes(it->second);
        index_.erase(it);
        ++evicted_;
    }
}

void
ResultCache::compact()
{
    if (cfg_.path.empty())
        return;
    // Rewrite the live index in insertion order into a side file and
    // rename it over the cache: a process killed mid-compaction leaves
    // the old file, every intact record included, in place.
    const std::string tmp = cfg_.path + ".tmp";
    {
        ckpt::JournalWriter out(tmp, ckpt::JournalWriter::Mode::kTruncate);
        for (const std::uint64_t key : order_) {
            const auto it = index_.find(key);
            if (it != index_.end())
                out.append(key, it->second);
        }
    }
    writer_.reset();
    if (std::rename(tmp.c_str(), cfg_.path.c_str()) != 0)
        throw ckpt::CkptError("cache: cannot replace '" + cfg_.path + "'");
    writer_ = std::make_unique<ckpt::JournalWriter>(
        cfg_.path, ckpt::JournalWriter::Mode::kAppend);
}

bool
replay_result(const ResultCache &cache, std::uint64_t key,
              SyntheticResult &out)
{
    std::vector<std::uint8_t> payload;
    if (!cache.lookup(key, payload))
        return false;
    try {
        ckpt::Reader r(payload);
        SyntheticResult res = take_synth_result(r);
        r.expect_exhausted();
        out = std::move(res);
        return true;
    } catch (const ckpt::CkptError &) {
        return false;
    }
}

void
store_result(ResultCache &cache, std::uint64_t key,
             const SyntheticResult &res)
{
    ckpt::Writer w;
    put_synth_result(w, res);
    cache.insert(key, w.bytes());
}

} // namespace serve
} // namespace catnap
