#include "sim/random.h"

#include <cmath>

#include "sim/log.h"

namespace svtsim {

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    simAssert(n > 0, "Rng::below requires n > 0");
    // Multiply-shift bounded sampling; bias is negligible for our n.
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(next()) * n) >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    simAssert(lo <= hi, "Rng::range requires lo <= hi");
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    simAssert(mean > 0, "Rng::exponential requires mean > 0");
    double u = uniform();
    // Guard against log(0).
    if (u <= 0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev)
{
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0)
        u1 = 0x1.0p-53;
    double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::generalizedPareto(double location, double scale, double shape)
{
    simAssert(scale > 0, "generalizedPareto requires scale > 0");
    double u = uniform();
    if (u >= 1.0)
        u = 1.0 - 0x1.0p-53;
    if (shape == 0.0)
        return location - scale * std::log(1.0 - u);
    return location + scale * (std::pow(1.0 - u, -shape) - 1.0) / shape;
}

} // namespace svtsim
