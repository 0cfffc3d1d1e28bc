// Lint fixture: clean input for the effects manifest of a write made
// through a range-for reference alias. Never compiled. set_all() writes
// every element of its parameter through `int &x`, and refresh()
// passes it vals_, so `catnap_lint --effects-out` over this file must
// list vals_ among Filler's writes (golden_range_for_alias.json).
// Missing that write, refresh() would look effect-pure and L6 would
// flag its CATNAP_PHASE_WRITE label.
#include <vector>

#include "common/phase.h"

namespace fixture {

void
set_all(std::vector<int> &v)
{
    for (int &x : v)
        x = 1;
}

class Filler
{
  public:
    CATNAP_PHASE_WRITE void refresh() { set_all(vals_); }

    CATNAP_PHASE_READ int first() const { return vals_[0]; }

  private:
    std::vector<int> vals_;
};

} // namespace fixture
