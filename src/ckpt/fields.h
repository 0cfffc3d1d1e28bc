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
 *   std::string, std::vector   a u64 count, then the elements
 *   any other type             its own field list
 *
 * Stateful classes keep hand-written Serialize/Deserialize members: the
 * phase lint has to see every write a Deserialize makes.
 */
#ifndef CATNAP_CKPT_FIELDS_H
#define CATNAP_CKPT_FIELDS_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"

namespace catnap {
namespace ckpt {

/** Return type of a field list for U: enabled for T = U or const U. */
template <typename T, typename U>
using If = std::enable_if_t<std::is_same_v<std::remove_const_t<T>, U>>;

/** Field types encoded as an i32. */
template <typename T>
constexpr bool is_i32 = std::is_enum_v<T> || std::is_same_v<T, int> ||
                        std::is_same_v<T, std::int16_t>;

/** Field types encoded as a u64. */
template <typename T>
constexpr bool is_u64 = std::is_same_v<T, std::uint64_t> ||
                        std::is_same_v<T, std::int64_t>;

/** True for std::vector, encoded as a count and its elements. */
template <typename T>
struct IsVector : std::false_type
{
};
template <typename T, typename A>
struct IsVector<std::vector<T, A>> : std::true_type
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
        } else if constexpr (IsVector<T>::value) {
            w.put_u64(x.size());
            for (const auto &e : x)
                (*this)(e);
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
        } else if constexpr (IsVector<T>::value) {
            x.assign(r.take_count(), typename T::value_type{});
            for (auto &e : x)
                (*this)(e);
        } else {
            fields(*this, x);
        }
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
        } else if constexpr (IsVector<T>::value) {
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
    T x{};
    Take{r}(x);
    return x;
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
