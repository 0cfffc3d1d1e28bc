/**
 * @file
 * One field list per value type, walked by three visitors (DESIGN.md
 * §13). A type that crosses a file or process boundary names its fields
 * once, in wire order, in a `fields(v, x)` overload in namespace ckpt
 * (ckpt/codec.h, ckpt/schema.h). The overload's If<T, Type> return type
 * accepts Type and const Type, so the archive writer (Put), the archive
 * reader (Take) and the FNV-1a hash (Mix) share the list and cannot
 * drift apart. Field encodings:
 *
 *   int, std::int16_t, enums   i32 (Mix: the u32 widened to u64)
 *   64-bit integers (Cycle)    u64, two's complement for std::int64_t
 *   bool                       one byte, 0 or 1 (Mix: a u64)
 *   double                     its bit pattern as a u64
 *   std::string, std::vector,  a u64 count, then the elements
 *   std::deque
 *   std::map                   a u64 count, then each key and its value
 *                              (Put and Take only)
 *   any other type             its own field list
 *
 * A component's state records (its nested structs, ActivityCounters)
 * have field lists too, written as hidden friends so the component's
 * header needs only ckpt/fwd.h. The component itself keeps member
 * Serialize/Deserialize, because the phase lint must see every write a
 * restore makes: each body is one ckpt::put, or one assignment, per
 * member (`arrivals_ = ckpt::take<std::vector<Arrival>>(r)`), and a
 * container the constructor sized is read with take_exact. Only
 * RingFifos, nested components and records that also hold wiring are
 * restored in place.
 */
#ifndef CATNAP_CKPT_FIELDS_H
#define CATNAP_CKPT_FIELDS_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"
#include "ckpt/fwd.h"

namespace catnap {
namespace ckpt {

/** Field types encoded as an i32. */
template <typename T>
constexpr bool is_i32 = std::is_enum_v<T> || std::is_same_v<T, int> ||
                        std::is_same_v<T, std::int16_t>;

/** Field types encoded as a u64. */
template <typename T>
constexpr bool is_u64 = std::is_same_v<T, std::uint64_t> ||
                        std::is_same_v<T, std::int64_t>;

/** True for std::vector and std::deque: a count, then the elements. */
template <typename T>
struct IsSequence : std::false_type
{
};
template <typename T, typename A>
struct IsSequence<std::vector<T, A>> : std::true_type
{
};
template <typename T, typename A>
struct IsSequence<std::deque<T, A>> : std::true_type
{
};

/** True for std::map: a count, then each key and its value. */
template <typename T>
struct IsMap : std::false_type
{
};
template <typename K, typename V, typename C, typename A>
struct IsMap<std::map<K, V, C, A>> : std::true_type
{
};

/** Appends each field to a Writer. */
struct Put
{
    Writer &w;

    template <typename T>
    void
    operator()(const T &x) const
    {
        if constexpr (is_i32<T>) {
            w.put_i32(static_cast<std::int32_t>(x));
        } else if constexpr (std::is_same_v<T, bool>) {
            w.put_bool(x);
        } else if constexpr (std::is_same_v<T, double>) {
            w.put_double(x);
        } else if constexpr (is_u64<T>) {
            w.put_u64(static_cast<std::uint64_t>(x));
        } else if constexpr (std::is_same_v<T, std::string>) {
            w.put_string(x);
        } else if constexpr (IsSequence<T>::value) {
            w.put_u64(x.size());
            for (const auto &e : x)
                (*this)(e);
        } else if constexpr (IsMap<T>::value) {
            w.put_u64(x.size());
            for (const auto &[key, value] : x) {
                (*this)(key);
                (*this)(value);
            }
        } else {
            fields(*this, x);
        }
    }
};

/** Overwrites each field from a Reader, in the order Put wrote them. */
struct Take
{
    Reader &r;

    template <typename T>
    void
    operator()(T &x) const
    {
        if constexpr (is_i32<T>) {
            x = static_cast<T>(r.take_i32());
        } else if constexpr (std::is_same_v<T, bool>) {
            x = r.take_bool();
        } else if constexpr (std::is_same_v<T, double>) {
            x = r.take_double();
        } else if constexpr (is_u64<T>) {
            x = static_cast<T>(r.take_u64());
        } else if constexpr (std::is_same_v<T, std::string>) {
            x = r.take_string();
        } else if constexpr (IsSequence<T>::value) {
            x = elements<T>(r.take_count());
        } else if constexpr (IsMap<T>::value) {
            x.clear();
            for (std::size_t n = r.take_count(); n > 0; --n) {
                auto key = value<typename T::key_type>();
                x.emplace_hint(x.end(), std::move(key),
                               value<typename T::mapped_type>());
            }
        } else {
            fields(*this, x);
        }
    }

    /** Consumes a T. */
    template <typename T>
    T
    value() const
    {
        T x{};
        (*this)(x);
        return x;
    }

    /** Consumes @p n elements of the vector or deque T. */
    template <typename T>
    T
    elements(std::size_t n) const
    {
        T x;
        if constexpr (requires { x.reserve(n); })
            x.reserve(n);
        for (; n > 0; --n)
            x.push_back(value<typename T::value_type>());
        return x;
    }
};

/** Mixes each field into an FNV-1a hash. */
struct Mix
{
    Fnv1a &h;

    template <typename T>
    void
    operator()(const T &x) const
    {
        if constexpr (is_i32<T>) {
            h.mix_i32(static_cast<std::int32_t>(x));
        } else if constexpr (std::is_same_v<T, bool>) {
            h.mix_bool(x);
        } else if constexpr (std::is_same_v<T, double>) {
            h.mix_double(x);
        } else if constexpr (is_u64<T>) {
            h.mix_u64(static_cast<std::uint64_t>(x));
        } else if constexpr (IsSequence<T>::value) {
            h.mix_u64(x.size());
            for (const auto &e : x)
                (*this)(e);
        } else {
            fields(*this, x);
        }
    }
};

/** Appends @p x to @p w. */
template <typename T>
void
put(Writer &w, const T &x)
{
    Put{w}(x);
}

/** Consumes a T that put() wrote. */
template <typename T>
T
take(Reader &r)
{
    return Take{r}.value<T>();
}

/**
 * Consumes what put() wrote for a container the constructor sized, and
 * returns it; @p live is the live container, or for one restored in
 * place its size. Topology-derived containers are sized by config,
 * never by the image, so a count that differs means the image does not
 * describe this configuration (defense in depth behind the header's
 * config hash): it throws CkptError naming @p what.
 */
template <typename C>
C
take_exact(Reader &r, const C &live, const char *what)
{
    std::uint64_t want = 0;
    if constexpr (std::is_integral_v<C>)
        want = live;
    else
        want = live.size();
    const std::uint64_t got = r.take_u64();
    if (got != want)
        throw CkptError(std::string("checkpoint: ") + what + " count " +
                        std::to_string(got) + " does not match configured " +
                        std::to_string(want));
    if constexpr (std::is_integral_v<C>)
        return live;
    else
        return Take{r}.elements<C>(live.size());
}

/** Mixes @p x into @p h. */
template <typename T>
void
mix(Fnv1a &h, const T &x)
{
    Mix{h}(x);
}

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_FIELDS_H
