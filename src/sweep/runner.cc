/**
 * @file
 * SweepRunner implementation: dynamic point claiming over an atomic
 * cursor, per-point result slots for deterministic assembly, and
 * EQ_SWEEP_THREADS resolution.
 */

#include "sweep/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/stringutil.hh"

namespace eq {
namespace sweep {

SweepRunner::SweepRunner(RunnerOptions opts) : _opts(opts) {}

unsigned
SweepRunner::threadsFor(size_t num_points) const
{
    int64_t n = _opts.threads;
    if (n == 0) {
        if (const char *env = std::getenv("EQ_SWEEP_THREADS")) {
            if (!parseIntInRange(env, 1, kMaxWorkerThreads, &n))
                eq_warn("ignoring invalid EQ_SWEEP_THREADS='", env,
                        "' (want 1..", kMaxWorkerThreads, ")");
        }
    }
    if (n == 0)
        n = std::thread::hardware_concurrency();
    n = std::min(n, kMaxWorkerThreads);
    if (num_points > 0 && static_cast<size_t>(n) > num_points)
        n = static_cast<int64_t>(num_points);
    return static_cast<unsigned>(std::max<int64_t>(1, n));
}

Table
SweepRunner::run(const Grid &grid, std::vector<Column> schema,
                 const RowFn &fn) const
{
    return run(grid.points(), std::move(schema), fn);
}

Table
SweepRunner::run(const std::vector<Point> &points,
                 std::vector<Column> schema, const RowFn &fn) const
{
    Table table(std::move(schema));
    if (points.empty())
        return table;

    std::vector<std::vector<Cell>> rows(points.size());
    std::atomic<size_t> cursor{0};
    // The first exception a point throws stops the hand-out of further
    // points and is rethrown on the caller once every worker joined.
    std::exception_ptr failure;
    std::mutex failureMu;
    auto work = [&](unsigned worker) {
        try {
            for (size_t i; (i = cursor.fetch_add(1)) < points.size();)
                rows[i] = fn(points[i], worker);
        } catch (...) {
            std::lock_guard<std::mutex> lock(failureMu);
            if (!failure)
                failure = std::current_exception();
            cursor.store(points.size());
        }
    };

    unsigned nthreads = threadsFor(points.size());
    if (nthreads == 1) {
        // Inline: no thread spawn for serial sweeps (and no scheduler
        // noise in single-threaded determinism baselines).
        work(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned w = 0; w < nthreads; ++w)
            pool.emplace_back(work, w);
        for (auto &t : pool)
            t.join();
    }
    if (failure)
        std::rethrow_exception(failure);

    // Assemble in point-index order: the table is independent of how
    // points were interleaved across workers.
    for (auto &row : rows)
        table.addRow(std::move(row));
    return table;
}

} // namespace sweep
} // namespace eq
