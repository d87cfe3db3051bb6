#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace cloudseer::common {

void
SampleStats::add(double value)
{
    samples.push_back(value);
    total += value;
    sorted = false;
}

void
SampleStats::ensureSorted() const
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

double
SampleStats::min() const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    return samples.front();
}

double
SampleStats::max() const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    return samples.back();
}

double
SampleStats::mean() const
{
    if (samples.empty())
        return 0.0;
    return total / static_cast<double>(samples.size());
}

double
SampleStats::median() const
{
    return percentile(50.0);
}

double
SampleStats::percentile(double p) const
{
    if (samples.empty())
        return 0.0;
    CS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    ensureSorted();
    if (samples.size() == 1)
        return samples[0];
    double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double
DetectionStats::precision() const
{
    std::size_t denom = truePositives + falsePositives;
    return denom == 0
        ? 0.0
        : static_cast<double>(truePositives) / static_cast<double>(denom);
}

double
DetectionStats::recall() const
{
    std::size_t denom = truePositives + falseNegatives;
    return denom == 0
        ? 0.0
        : static_cast<double>(truePositives) / static_cast<double>(denom);
}

double
DetectionStats::f1() const
{
    double p = precision();
    double r = recall();
    return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

void
DetectionStats::merge(const DetectionStats &other)
{
    truePositives += other.truePositives;
    falsePositives += other.falsePositives;
    falseNegatives += other.falseNegatives;
}

void
SampleStats::saveState(BinWriter &out) const
{
    out.writeU64(samples.size());
    for (double sample : samples)
        out.writeF64(sample);
    out.writeF64(total);
}

bool
SampleStats::restoreState(BinReader &in)
{
    std::uint64_t count = in.readCount(8);
    if (!in.ok())
        return false;
    std::vector<double> restored;
    restored.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && in.ok(); ++i)
        restored.push_back(in.readF64());
    double restored_total = in.readF64();
    if (!in.ok())
        return false;
    samples = std::move(restored);
    sorted = false;
    total = restored_total;
    return true;
}

std::string
formatRange(const SampleStats &stats, int precision)
{
    return formatDouble(stats.min(), precision) + " - " +
           formatDouble(stats.max(), precision);
}

} // namespace cloudseer::common
