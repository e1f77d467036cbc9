#include "workloads/video.h"

#include <algorithm>
#include <cmath>

#include "arch/regs.h"
#include "workloads/guest_os.h"

namespace svtsim {

namespace {

// Decode-time and interference model of the 4K stream.

/** Median frame decode time (4K HEVC on one core). */
constexpr Ticks decodeMedian = msec(2.9);
/** Lognormal sigma of ordinary frames. */
constexpr double decodeSigma = 0.16;
/** Fraction of heavy frames (scene cuts, I-frames). */
constexpr double heavyProb = 0.02;
/** Decode multiplier of heavy frames. */
constexpr double heavyFactor = 1.68;
/** Lognormal sigma of heavy frames. */
constexpr double heavySigma = 0.28;
/** Stream bitrate (demuxer reads), Mbit/s. */
constexpr double bitrateMbps = 40.0;
/** Frames per buffered stream read. */
constexpr int framesPerRead = 8;
/** A/V desync tolerance, as a fraction of the frame period: a wakeup
 *  later than this drops the frame. */
constexpr double dropSlackFraction = 0.0295;
/** Background L1-kernel housekeeping rate (events/s). */
constexpr double housekeepingRateHz = 230.0;
/** Cost of one housekeeping event. */
constexpr Ticks housekeepingCost = usec(35);

} // namespace

VideoPlayback::VideoPlayback(VirtStack &stack, VirtioBlkStack &blk,
                             std::uint64_t seed, double cpu_scale)
    : stack_(stack), blk_(blk), rng_(seed),
      decodeMedian_(static_cast<Ticks>(decodeMedian * cpu_scale))
{
}

void
VideoPlayback::scheduleHousekeeping(Ticks end)
{
    Machine &m = stack_.machine();
    Ticks gap = static_cast<Ticks>(
        rng_.exponential(1e12 / housekeepingRateHz));
    Ticks when = m.now() + std::max<Ticks>(gap, 1);
    if (when >= end)
        return;
    m.events().schedule(when, [this, end] {
        stack_.postL1Housekeeping(housekeepingCost);
        scheduleHousekeeping(end);
    }, "l1-housekeeping");
}

VideoResult
VideoPlayback::run(double fps, Ticks duration)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();

    Ticks period = static_cast<Ticks>(1e12 / fps);
    Ticks drop_slack = static_cast<Ticks>(
        static_cast<double>(period) * dropSlackFraction);
    int total = static_cast<int>(toSec(duration) * fps);
    auto bytes_per_read = static_cast<std::uint32_t>(
        bitrateMbps * 1e6 / 8.0 / fps * framesPerRead);

    std::uint64_t io_done_id = 0;
    blk_.setCompletionHandler(
        [&](std::uint64_t id) { io_done_id = id; });

    VideoResult result;
    result.totalFrames = total;

    Ticks busy = 0;
    Ticks start = machine.now();
    scheduleHousekeeping(start + duration);

    Ticks next_deadline = machine.now() + period;
    for (int frame = 0; frame < total; ++frame) {
        Ticks frame_busy_start = machine.now();

        // Demuxer: refill the stream buffer every few frames.
        if (frame % framesPerRead == 0) {
            std::uint64_t id = nextIo_++;
            blk_.submit(id, rng_.below(1 << 20), bytes_per_read,
                        false);
            GuestOs::idleWait(api,
                              [&] { return io_done_id == id; });
        }

        // Decode.
        double median = toSec(decodeMedian_);
        double t;
        if (rng_.chance(heavyProb)) {
            t = rng_.logNormal(std::log(median * heavyFactor),
                               heavySigma);
        } else {
            t = rng_.logNormal(std::log(median), decodeSigma);
        }
        api.compute(sec(t));
        busy += machine.now() - frame_busy_start;

        if (machine.now() > next_deadline) {
            // Decoder overran the display deadline.
            ++result.droppedFrames;
        } else {
            // Frame pacing: sleep until the display deadline. A
            // wakeup that arrives too late (timer delivery delayed
            // behind exit handling and L1 housekeeping) also drops
            // the frame.
            api.wrmsr(msr::ia32TscDeadline,
                      static_cast<std::uint64_t>(next_deadline));
            while (machine.now() < next_deadline)
                api.halt();
            api.wrmsr(msr::ia32TscDeadline, 0);
            Ticks lateness = machine.now() - next_deadline;
            if (lateness > drop_slack) {
                ++result.droppedFrames;
                ++result.lateWakeupDrops;
            }
        }
        next_deadline += period;
    }

    result.busyFraction =
        static_cast<double>(busy) /
        static_cast<double>(machine.now() - start);
    blk_.setCompletionHandler([](std::uint64_t) {});
    return result;
}

} // namespace svtsim
