#include "ckpt/journal.h"

#include <iterator>

namespace catnap {
namespace ckpt {

namespace {

/** Little-endian u32 at @p p (caller guarantees 4 readable bytes). */
std::uint32_t
load_u32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/** Little-endian u64 at @p p (caller guarantees 8 readable bytes). */
std::uint64_t
load_u64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

void
append_record(std::vector<std::uint8_t> &out, std::uint64_t key,
              const std::vector<std::uint8_t> &payload)
{
    Writer header;
    header.put_u32(kJournalMagic);
    header.put_u64(key);
    header.put_u64(payload.size());
    header.put_u32(crc32(payload.data(), payload.size()));
    out.insert(out.end(), header.bytes().begin(), header.bytes().end());
    out.insert(out.end(), payload.begin(), payload.end());
}

JournalScan
scan_journal(const std::uint8_t *data, std::size_t size)
{
    JournalScan scan;
    std::size_t pos = 0;
    while (size - pos >= kJournalRecordHeaderBytes) {
        const std::uint8_t *rec = data + pos;
        if (load_u32(rec) != kJournalMagic)
            break; // corruption: nothing past here can be trusted
        const std::uint64_t key = load_u64(rec + 4);
        const std::uint64_t len = load_u64(rec + 12);
        const std::uint32_t stored_crc = load_u32(rec + 20);
        const std::size_t remaining = size - pos - kJournalRecordHeaderBytes;
        if (len > remaining)
            break; // torn tail: the final append never completed
        const std::uint8_t *payload = rec + kJournalRecordHeaderBytes;
        if (crc32(payload, static_cast<std::size_t>(len)) != stored_crc)
            break; // payload damaged in place
        JournalRecord out;
        out.key = key;
        out.payload.assign(payload,
                           payload + static_cast<std::size_t>(len));
        scan.records.push_back(std::move(out));
        pos += kJournalRecordHeaderBytes + static_cast<std::size_t>(len);
    }
    scan.valid_bytes = pos;
    scan.discarded_bytes = size - pos;
    return scan;
}

JournalScan
load_journal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {}; // no journal yet: nothing completed, nothing to skip
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    if (in.bad())
        return {};
    return scan_journal(bytes);
}

JournalWriter::JournalWriter(const std::string &path, Mode mode)
    : path_(path),
      out_(path, mode == Mode::kTruncate
                     ? std::ios::binary | std::ios::trunc
                     : std::ios::binary | std::ios::app)
{
    if (!out_)
        throw CkptError("journal: cannot open '" + path +
                        "' for writing");
}

void
JournalWriter::append(std::uint64_t key,
                      const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> record;
    record.reserve(kJournalRecordHeaderBytes + payload.size());
    append_record(record, key, payload);
    out_.write(reinterpret_cast<const char *>(record.data()),
               static_cast<std::streamsize>(record.size()));
    out_.flush();
    if (!out_)
        throw CkptError("journal: append to '" + path_ + "' failed");
}

} // namespace ckpt
} // namespace catnap
