/**
 * @file
 * Zipf-distributed draws by inverse CDF, for hot keys in the
 * long-trace program's inputs and the service workload's request mix.
 */

#pragma once

#include <cmath>
#include <vector>

#include "support/rng.h"

namespace ohabench {

/** Zipf(skew) over ranks [0, n); rank 0 is the hottest. */
class Zipf
{
  public:
    Zipf(int n, double skew)
    {
        cdf_.reserve(n);
        double sum = 0;
        for (int k = 1; k <= n; ++k) {
            sum += 1.0 / std::pow(double(k), skew);
            cdf_.push_back(sum);
        }
        for (double &c : cdf_)
            c /= sum;
    }

    int
    draw(oha::Rng &rng) const
    {
        const double u = double(rng.next() >> 11) * 0x1.0p-53;
        int lo = 0, hi = int(cdf_.size()) - 1;
        while (lo < hi) {
            const int mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    std::vector<double> cdf_;
};

} // namespace ohabench
