/**
 * @file
 * Seeded hostile draws for the spec-validator tests: integers, tick
 * counts, doubles and enum values that favour the edges (0, negatives,
 * the type's extremes, NaN and infinities, values past the last
 * enumerator), and a StackConfig built from them. Every draw comes
 * from Rng's integer draws, so a failing case reproduces from the
 * test's seed.
 */

#ifndef SVTSIM_TESTS_HOSTILE_DRAWS_H
#define SVTSIM_TESTS_HOSTILE_DRAWS_H

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>

#include "hv/stack_config.h"
#include "sim/random.h"
#include "sim/ticks.h"

namespace svtsim {

/** 0, a negative, INT_MIN, INT_MAX, or a small positive value. */
inline int
hostileInt(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return 0;
      case 1: return -1 - static_cast<int>(rng.below(1000));
      case 2: return INT_MIN;
      case 3: return INT_MAX;
      default: return 1 + static_cast<int>(rng.below(8));
    }
}

/** The same edges for a tick count, at 64-bit extremes. */
inline Ticks
hostileTicks(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return 0;
      case 1: return -1 - rng.range(0, 1000000);
      case 2: return std::numeric_limits<Ticks>::min();
      case 3: return std::numeric_limits<Ticks>::max();
      default: return rng.range(1, 10000000);
    }
}

/** 0, a negative, NaN, +inf, -inf, DBL_MAX, or a small positive
 *  value. */
inline double
hostileDouble(Rng &rng)
{
    switch (rng.below(8)) {
      case 0: return 0;
      case 1: return -1.0 - static_cast<double>(rng.below(1000));
      case 2: return NAN;
      case 3: return INFINITY;
      case 4: return -INFINITY;
      case 5: return DBL_MAX;
      default: return 0.5 + static_cast<double>(rng.below(8));
    }
}

/** A value of @p E in [-1, count + 1]: the @p count enumerators, or one
 *  of the three values around them. */
template <typename E>
E
hostileEnum(Rng &rng, int count)
{
    return static_cast<E>(rng.range(-1, count + 1));
}

/** A StackConfig whose every knob keeps its default with probability
 *  3/4 and otherwise takes a hostile draw. */
inline StackConfig
hostileStackConfig(Rng &rng)
{
    StackConfig c;
    auto hostile = [&rng] { return rng.below(4) == 0; };
    if (hostile())
        c.mode = hostileEnum<VirtMode>(rng, 5);
    if (hostile())
        c.hwVmcsShadowing = false;
    if (hostile())
        c.channel.mechanism = hostileEnum<WaitMechanism>(rng, 3);
    if (hostile())
        c.channel.placement = hostileEnum<Placement>(rng, 3);
    if (hostile())
        c.svtBlockedFix = false;
    if (hostile())
        c.svtWatchdog = true;
    if (hostile())
        c.svtDirectReflect = true;
    if (hostile())
        c.postedInterrupts = true;
    if (hostile())
        c.virtioQueues = hostileInt(rng);
    if (hostile())
        c.virtioCoalesceCount = hostileInt(rng);
    if (hostile())
        c.virtioCoalesceTimeout = hostileTicks(rng);
    return c;
}

} // namespace svtsim

#endif // SVTSIM_TESTS_HOSTILE_DRAWS_H
