/**
 * @file
 * Codecs shared by the router, NI, traffic, and app serializers
 * (DESIGN.md §13): the field lists of flits and packet descriptors
 * (ckpt::put(w, flit), ckpt::take<Flit>(r)), readers for
 * constructor-sized vectors (written with ckpt::put), and RingFifos.
 *
 * Helpers are free functions: they mutate no member state themselves, so
 * they stay outside the phase lint's member-function rules while still
 * composing cleanly with READ Serialize / WRITE Deserialize callers.
 */
#ifndef CATNAP_CKPT_CODEC_H
#define CATNAP_CKPT_CODEC_H

#include <vector>

#include "ckpt/archive.h"
#include "ckpt/fields.h"
#include "noc/buffer.h"
#include "noc/flit.h"

namespace catnap {
namespace ckpt {

/** PacketDesc's field list (ckpt/fields.h). */
template <typename V, typename T>
If<T, PacketDesc>
fields(const V &v, T &p)
{
    v(p.id);
    v(p.src);
    v(p.dst);
    v(p.mc);
    v(p.size_bits);
    v(p.created);
    v(p.user);
}

/** Flit's field list (ckpt/fields.h). */
template <typename V, typename T>
If<T, Flit>
fields(const V &v, T &f)
{
    v(f.pkt);
    v(f.src);
    v(f.dst);
    v(f.mc);
    v(f.seq);
    v(f.pkt_flits);
    v(f.out_dir);
    v(f.vc);
    v(f.user);
    v(f.wrapped);
    v(f.created);
    v(f.injected);
}

/**
 * Consumes a container length that must match the size the constructor
 * already gave the live container (topology-derived containers are sized
 * by config, never by the checkpoint). A mismatch means the file does not
 * describe this configuration — defense in depth behind the header's
 * config hash.
 */
inline std::size_t
take_count_exact(Reader &r, std::size_t expected, const char *what)
{
    const std::uint64_t got = r.take_u64();
    if (got != static_cast<std::uint64_t>(expected))
        throw CkptError(std::string("checkpoint: ") + what + " count " +
                        std::to_string(got) + " does not match configured " +
                        std::to_string(expected));
    return expected;
}

/** Restores a constructor-sized vector of ints; count must match. */
inline void
take_vec_i32_exact(Reader &r, std::vector<int> &v, const char *what)
{
    take_count_exact(r, v.size(), what);
    for (int &x : v)
        x = r.take_i32();
}

/** Restores a constructor-sized vector of 64-bit ints; count must match. */
inline void
take_vec_i64_exact(Reader &r, std::vector<std::int64_t> &v, const char *what)
{
    take_count_exact(r, v.size(), what);
    for (std::int64_t &x : v)
        x = r.take_i64();
}

/** Restores a constructor-sized vector<bool>; count must match. */
inline void
take_vec_bool_exact(Reader &r, std::vector<bool> &v, const char *what)
{
    take_count_exact(r, v.size(), what);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = r.take_bool();
}

/** Appends a RingFifo front-to-back. */
template <typename T>
void
put_fifo(Writer &w, const RingFifo<T> &f)
{
    w.put_u64(f.size());
    for (std::size_t i = 0; i < f.size(); ++i)
        put(w, f.at(i));
}

/**
 * Restores a RingFifo's contents. Capacity is construction-time state and
 * never changes; an over-capacity count means the checkpoint does not
 * describe this configuration.
 */
template <typename T>
void
take_fifo(Reader &r, RingFifo<T> &f)
{
    const std::uint64_t n = r.take_u64();
    if (n > f.capacity())
        throw CkptError("checkpoint: FIFO holds " + std::to_string(n) +
                        " element(s) but configured capacity is " +
                        std::to_string(f.capacity()));
    f.clear();
    for (std::uint64_t i = 0; i < n; ++i)
        f.push(take<T>(r));
}

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_CODEC_H
