/**
 * @file
 * Forward declarations for the checkpoint archive types, so stateful
 * headers can declare Serialize/Deserialize members, and their state
 * records field lists, without pulling the full archive implementation
 * into every translation unit.
 */
#ifndef CATNAP_CKPT_FWD_H
#define CATNAP_CKPT_FWD_H

#include <type_traits>

namespace catnap {
namespace ckpt {

class Writer;
class Reader;

/** Return type of a field list for U (ckpt/fields.h): enabled for
 * T = U or const U. */
template <typename T, typename U>
using If = std::enable_if_t<std::is_same_v<std::remove_const_t<T>, U>>;

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_FWD_H
