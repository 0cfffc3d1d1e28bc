/**
 * @file
 * Shared helpers for the test suite.
 */
#ifndef CATNAP_TESTS_TEST_UTIL_H
#define CATNAP_TESTS_TEST_UTIL_H

#include <cstdint>
#include <vector>

#include "noc/multinoc.h"

namespace catnap {
namespace test {

/**
 * Ticks @p net until it reports quiescent() or @p budget cycles elapse,
 * and returns the final quiescent() value so callers can assert on it:
 *
 *     ASSERT_TRUE(test::drain_until_quiescent(net));
 *
 * The default budget is generous enough for every drain in the suite;
 * pass a smaller budget only when the test is deliberately time-boxed.
 */
inline bool
drain_until_quiescent(MultiNoc &net, Cycle budget = 120000)
{
    const Cycle end = net.now() + budget;
    while (net.now() < end && !net.quiescent())
        net.tick();
    return net.quiescent();
}

/** FNV-1a 64 over @p bytes, one byte at a time. */
inline std::uint64_t
digest(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace test
} // namespace catnap

#endif // CATNAP_TESTS_TEST_UTIL_H
