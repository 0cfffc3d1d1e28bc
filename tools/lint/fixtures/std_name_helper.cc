// Lint fixture, never compiled: Shelf::peek() hands items_ to a
// read-only project function named `sort`, defined after its caller.
// `catnap_lint --effects-out` must list a read of items_ and no write
// (golden_std_name_helper.json), not take the call for std::sort.
#include <vector>

#include "common/phase.h"

namespace fixture {

int sort(const std::vector<int> &v);

class Shelf
{
  public:
    CATNAP_PHASE_READ int peek() const { return sort(items_); }

  private:
    std::vector<int> items_;
};

int
sort(const std::vector<int> &v)
{
    return v.empty() ? 0 : v.front();
}

} // namespace fixture
