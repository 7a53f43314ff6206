/**
 * @file
 * Self-test of the benchmark's percentile helper (stats.h).  Built
 * with the benchmark and run by run.py after every build; exits
 * nonzero on the first failed check.
 */
#include <cstdio>
#include <numeric>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++g_failures;
    }
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

} // namespace

int
main()
{
    using perfbench::percentile;

    // p90 needs ten samples beyond it: 100 samples is the minimum.
    check(!percentile(iota(99), 0.90), "p90 of 99 samples is refused");
    check(percentile(iota(100), 0.90) == 90.0, "p90 of 1..100 is 90");
    check(perfbench::samplesNeeded(0.90) == 100, "p90 needs 100 samples");

    // p99 needs 1000 samples.
    check(!percentile(iota(999), 0.99), "p99 of 999 samples is refused");
    check(percentile(iota(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
    check(perfbench::samplesNeeded(0.99) == 1000, "p99 needs 1000 samples");

    // The median needs ten samples above it too.
    check(!percentile(iota(19), 0.5), "p50 of 19 samples is refused");
    check(percentile(iota(21), 0.5) == 11.0, "p50 of 1..21 is 11");

    // Order of the input does not matter; the input is not modified.
    std::vector<double> shuffled = iota(200);
    std::reverse(shuffled.begin(), shuffled.end());
    const std::vector<double> copy = shuffled;
    check(percentile(shuffled, 0.90) == 180.0, "p90 of reversed 1..200");
    check(shuffled == copy, "input left untouched");

    // Degenerate requests.
    check(!percentile({}, 0.5), "empty sample refused");
    check(!percentile(iota(5000), 0.0), "q = 0 refused");
    check(!percentile(iota(5000), 1.0), "q = 1 refused");

    check(perfbench::medianOf({3.0, 1.0, 2.0}) == 2.0, "odd median");
    check(perfbench::medianOf({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");

    if (g_failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
