/**
 * @file
 * Deterministic random number generation for workload models.
 *
 * All stochastic behaviour in the simulator flows through Rng so that a
 * run is reproducible from its seed. The generator is SplitMix64: tiny,
 * fast, and passes BigCrush for this use case.
 */

#ifndef SVTSIM_SIM_RANDOM_H
#define SVTSIM_SIM_RANDOM_H

#include <cstdint>

namespace svtsim {

/** Deterministic PRNG plus the distributions the workloads need. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
        : state_(seed)
    {}

    /** Next raw 64-bit value (SplitMix64). */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /** Exponential variate with the given mean. @pre mean > 0. */
    double exponential(double mean);

    /** Normal variate (Box-Muller). */
    double normal(double mean, double stddev);

    /**
     * Log-normal variate parameterized by the mean and stddev of the
     * underlying normal (the classic service-time model for key-value
     * store request sizes).
     */
    double logNormal(double mu, double sigma);

    /**
     * Generalized-Pareto variate, used by the ETC key-value workload
     * model for value sizes (Atikoglu et al., SIGMETRICS'12).
     */
    double generalizedPareto(double location, double scale, double shape);

  private:
    std::uint64_t state_;
};

} // namespace svtsim

#endif // SVTSIM_SIM_RANDOM_H
