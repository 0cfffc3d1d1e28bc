#include "exec/sweep_runner.h"

#include <algorithm>
#include <set>
#include <stdexcept>

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
    // Per-run observers must be exclusive: one sink shared by two
    // concurrent runs would interleave their event streams in host
    // scheduling order, silently breaking trace determinism.
    std::set<const void *> sinks, snapshots;
    for (const RunItem &item : items) {
        if (item.params.sink != nullptr &&
            !sinks.insert(item.params.sink).second) {
            throw std::invalid_argument(
                "run_batch: two items share an EventSink; give each "
                "item its own recorder and merge in item order");
        }
        if (item.params.snapshots != nullptr &&
            !snapshots.insert(item.params.snapshots).second) {
            throw std::invalid_argument(
                "run_batch: two items share a SnapshotRecorder; give "
                "each item its own recorder and merge in item order");
        }
    }

    SweepRunner runner(opts);
    return runner.map<SyntheticResult>(items.size(), [&items](
                                                         std::size_t i) {
        return run_synthetic(items[i].cfg, items[i].traffic,
                             items[i].params);
    });
}

} // namespace catnap
