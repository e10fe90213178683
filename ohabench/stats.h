/**
 * @file
 * Sample statistics and timing for the end-to-end benchmark: medians,
 * quartiles and a tail percentile with enough samples beyond it.
 * Nothing here takes a best-of-N.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ohabench {

/** Milliseconds on the steady clock since an arbitrary epoch. */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A bag of samples with order statistics. */
class Samples
{
  public:
    void add(double value) { values_.push_back(value); }
    std::size_t count() const { return values_.size(); }

    /** Linear-interpolated quantile, q in [0, 1] (the "inclusive"
     *  method of Python's statistics.quantiles). */
    double
    quantile(double q) const
    {
        if (values_.empty())
            return 0;
        std::vector<double> sorted = values_;
        std::sort(sorted.begin(), sorted.end());
        const double pos = q * double(sorted.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
    }

    double median() const { return quantile(0.5); }

    /** The tail quantile this bag can support: 0.9 when at least ten
     *  samples lie beyond it, otherwise the highest quantile that
     *  still leaves ten samples beyond it (0.5 at the least). */
    double
    tailQuantile() const
    {
        const double n = double(values_.size());
        if (n <= 20)
            return 0.5;
        return std::min(0.9, 1.0 - 10.0 / n);
    }

    double tail() const { return quantile(tailQuantile()); }

  private:
    std::vector<double> values_;
};

} // namespace ohabench
