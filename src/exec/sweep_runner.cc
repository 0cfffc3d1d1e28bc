#include "exec/sweep_runner.h"

#include <algorithm>

namespace catnap {

void
SweepRunner::run_jobs(std::size_t n,
                      const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    const int jobs = opts_.jobs > 0 ? opts_.jobs : ThreadPool::default_jobs();
    ThreadPool pool(static_cast<int>(
        std::min(static_cast<std::size_t>(jobs), n)));
    pool.for_each(n, body);
}

std::vector<SyntheticResult>
run_batch(const std::vector<RunItem> &items, const ExecOptions &opts)
{
    SweepRunner runner(opts);
    return runner.map<SyntheticResult>(items.size(), [&items](
                                                         std::size_t i) {
        return run_synthetic(items[i].cfg, items[i].traffic,
                             items[i].params);
    });
}

} // namespace catnap
