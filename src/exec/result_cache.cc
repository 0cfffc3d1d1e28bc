#include "exec/result_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ckpt/schema.h"

namespace catnap {

/**
 * An open descriptor holding an exclusive flock(2) on the file its path
 * named when the lock was taken; destroying it releases the lock. The
 * descriptor is close-on-exec, so worker subprocesses never inherit it.
 */
class ResultCache::Lock
{
  public:
    explicit Lock(const std::string &path);
    ~Lock() { ::close(fd_); }

    Lock(const Lock &) = delete;
    Lock &operator=(const Lock &) = delete;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

ResultCache::Lock::Lock(const std::string &path)
    : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644))
{
    if (fd_ < 0) {
        throw ckpt::CkptError("journal: cannot open '" + path +
                              "': " + std::strerror(errno));
    }
    const std::string in_use =
        "journal: '" + path + "' is in use by another sweep";
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        const int err = errno;
        ::close(fd_);
        if (err == EWOULDBLOCK)
            throw ckpt::CkptError(in_use);
        throw ckpt::CkptError("journal: cannot lock '" + path +
                              "': " + std::strerror(err));
    }
    // A sweep compacting the file renames a new one over its path, so a
    // lock won on the file the path named before that guards nothing.
    struct stat held {};
    struct stat named {};
    if (::fstat(fd_, &held) != 0 || ::stat(path.c_str(), &named) != 0 ||
        held.st_dev != named.st_dev || held.st_ino != named.st_ino) {
        ::close(fd_);
        throw ckpt::CkptError(in_use);
    }
}

ResultCache::ResultCache(const std::string &path,
                         ckpt::JournalWriter::Mode mode)
    : path_(path), lock_(std::make_unique<Lock>(path))
{
    if (mode == ckpt::JournalWriter::Mode::kTruncate) {
        if (::ftruncate(lock_->fd(), 0) != 0) {
            throw ckpt::CkptError("journal: cannot empty '" + path_ +
                                  "': " + std::strerror(errno));
        }
    }

    const ckpt::JournalScan scan = ckpt::load_journal(path_);
    for (const ckpt::JournalRecord &rec : scan.records) {
        auto [it, fresh] = index_.emplace(rec.key, rec.payload);
        if (fresh)
            order_.push_back(rec.key);
        else
            it->second = rec.payload; // last record wins
    }

    // A torn tail or a key recorded twice forces a compaction, so the
    // file matches the index exactly before new appends land.
    if (scan.discarded_bytes > 0 || scan.records.size() != index_.size()) {
        compact();
    } else {
        writer_ = std::make_unique<ckpt::JournalWriter>(
            path_, ckpt::JournalWriter::Mode::kAppend);
    }
}

ResultCache::~ResultCache() = default;

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

void
ResultCache::insert(std::uint64_t key,
                    const std::vector<std::uint8_t> &payload)
{
    auto [it, fresh] = index_.emplace(key, payload);
    if (!fresh) {
        it->second = payload;
        order_.erase(std::find(order_.begin(), order_.end(), key));
    }
    order_.push_back(key);
    writer_->append(key, payload);
}

void
ResultCache::compact()
{
    // Rewrite the live index in insertion order into a side file and
    // rename it over the cache: a process killed mid-compaction leaves
    // the old file, every intact record included, in place. The side
    // file is locked before the rename, so no other sweep can take the
    // path between the rename and this one's lock.
    const std::string tmp = path_ + ".tmp";
    auto side = std::make_unique<Lock>(tmp);
    {
        ckpt::JournalWriter out(tmp, ckpt::JournalWriter::Mode::kTruncate);
        for (const std::uint64_t key : order_)
            out.append(key, index_.at(key));
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        throw ckpt::CkptError("journal: cannot replace '" + path_ + "'");
    lock_ = std::move(side);
    writer_ = std::make_unique<ckpt::JournalWriter>(
        path_, ckpt::JournalWriter::Mode::kAppend);
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
        SyntheticResult res = ckpt::take<SyntheticResult>(r);
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
    ckpt::put(w, res);
    cache.insert(key, w.bytes());
}

} // namespace catnap
