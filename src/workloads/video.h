/**
 * @file
 * Video playback (Section 6.3.3): an mplayer-like soft-realtime
 * player in the nested guest reproducing a 4K movie repackaged at
 * 24/60/120 FPS, counting dropped frames. Frame pacing relies on the
 * TSC-deadline timer; stream data is read from the virtio disk.
 *
 * Frames drop for two reasons, per the paper's analysis:
 *  - the decoder missed the display deadline (heavy frames), and
 *  - the pacing timer interrupt was delivered too late ("they are
 *    enough to deliver interrupts too late for 40 frames"), which
 *    happens when the wakeup path serializes behind L1-kernel
 *    housekeeping in the baseline.
 */

#ifndef SVTSIM_WORKLOADS_VIDEO_H
#define SVTSIM_WORKLOADS_VIDEO_H

#include "hv/virt_stack.h"
#include "io/virtio_blk.h"
#include "sim/random.h"

namespace svtsim {

/** Result of a playback run. */
struct VideoResult
{
    int totalFrames = 0;
    int droppedFrames = 0;
    /** Drops caused by late timer delivery (subset of dropped). */
    int lateWakeupDrops = 0;
    /** Fraction of time the player vCPU was busy. */
    double busyFraction = 0;
};

/**
 * The playback loop: decode ahead of each display deadline; count
 * frames that miss it, exactly like mplayer's -framedrop accounting.
 */
class VideoPlayback
{
  public:
    /** @param cpu_scale Multiplier on the median frame decode time
     *         (the fleet scheduler uses it to model SMT-sibling
     *         contention under the sibling-share policy). */
    VideoPlayback(VirtStack &stack, VirtioBlkStack &blk,
                  std::uint64_t seed = 99, double cpu_scale = 1.0);

    VideoResult run(double fps, Ticks duration);

  private:
    void scheduleHousekeeping(Ticks end);

    VirtStack &stack_;
    VirtioBlkStack &blk_;
    Rng rng_;
    Ticks decodeMedian_;
    std::uint64_t nextIo_ = 1ULL << 32;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_VIDEO_H
