/**
 * @file
 * Order statistics for the benchmark's timings.
 *
 * The rule the whole benchmark follows: a percentile is reported only
 * when at least ten samples lie beyond it, so a "p99" always rests on
 * at least 1000 samples and a "p90" on at least 100.  percentile()
 * returns nothing when the sample cannot support the request, and the
 * caller must then collect more samples rather than report a guess.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples required beyond a reported percentile. */
inline constexpr std::size_t kTailSamples = 10;

/**
 * Nearest-rank position (0-based, in sorted order) of quantile @p q
 * in @p n samples: the smallest rank whose cumulative share reaches q.
 */
inline std::size_t
nearestRank(std::size_t n, double q)
{
    const double pos = std::ceil(q * static_cast<double>(n));
    const std::size_t rank = pos < 1.0 ? 1 : static_cast<std::size_t>(pos);
    return std::min(rank, n) - 1;
}

/**
 * The @p q quantile (0 < q < 1) of @p samples by nearest rank, or
 * nullopt when fewer than kTailSamples samples lie beyond it.
 */
inline std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || !(q > 0.0 && q < 1.0))
        return std::nullopt;
    const std::size_t rank = nearestRank(n, q);
    if (n - 1 - rank < kTailSamples)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return samples[rank];
}

/** Smallest sample count for which percentile(q) is reported. */
inline std::size_t
samplesNeeded(double q)
{
    std::size_t n = 1;
    while (n - 1 - nearestRank(n, q) < kTailSamples)
        ++n;
    return n;
}

/** Median of a set of repeated measurements (any count >= 1), used
 *  for quantities measured a few times per run, such as set-up. */
inline double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
