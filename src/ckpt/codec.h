/**
 * @file
 * Codecs shared by the router, NI, traffic, and app serializers
 * (DESIGN.md §13): the field lists of flits and packet descriptors
 * (ckpt::put(w, flit), ckpt::take<Flit>(r)), and RingFifos.
 *
 * A stateful class restores its members itself: its Deserialize assigns
 * each one what ckpt::take or ckpt::take_exact returns, so every write
 * is the class's own and the phase lint sees it. A RingFifo keeps its
 * construction-time capacity, so take_fifo refills the live one in
 * place, called from the owner's Deserialize.
 */
#ifndef CATNAP_CKPT_CODEC_H
#define CATNAP_CKPT_CODEC_H

#include <string>

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
