/**
 * @file
 * In-process calibration loop: a fixed piece of simulator-like host
 * work (small allocations, ordered-map updates, indirect calls, hashing
 * and scattered reads over 256 KiB) that uses none of the simulator's
 * code. Timing it beside every round tells how fast the host ran at that
 * moment, so the end-to-end times can also be stated as ratios to it
 * (see README.md). A change to the simulator cannot move it.
 */

#ifndef HOSTBENCH_CALIB_H
#define HOSTBENCH_CALIB_H

#include <cstdint>

namespace hostbench {

struct Calibration
{
    /** Host seconds the loop took. */
    double seconds = 0;
    /** Checksum of the loop's work (keeps it from being optimized
     *  away; identical on every call). */
    std::uint64_t checksum = 0;
};

/** Run the loop on @p threads threads at once (one per CPU the
 *  workload is pinned to, so contention on any of them shows) and
 *  return their mean time. */
Calibration calibrate(int threads);

} // namespace hostbench

#endif // HOSTBENCH_CALIB_H
