/**
 * @file
 * Virtqueue: the descriptor ring abstraction shared by the virtio
 * device models (split-ring semantics, EVENT_IDX-style notification
 * suppression).
 */

#ifndef SVTSIM_IO_VIRTQUEUE_H
#define SVTSIM_IO_VIRTQUEUE_H

#include <cstdint>
#include <deque>

#include "arch/machine.h"

namespace svtsim {

/** One buffer travelling through a virtqueue. */
struct VirtioBuffer
{
    /** Caller-chosen identifier (request id, packet id). */
    std::uint64_t id = 0;
    /** Payload length in bytes. */
    std::uint32_t bytes = 0;
    /** Opaque payload word (sector number, flags, ...). */
    std::uint64_t payload = 0;
    /** Whether the device writes the buffer (reads/rx) or reads it. */
    bool deviceWrites = false;
};

/**
 * A split virtqueue: the driver posts buffers to the available ring
 * and the device returns them on the used ring.
 *
 * Notification suppression follows the virtio EVENT_IDX scheme in
 * spirit: the driver needs to notify (kick) only when the device has
 * drained the available ring; batched submissions ride on one kick,
 * which is what keeps the exit count per byte low in the bandwidth
 * workloads (Figure 7).
 */
class Virtqueue
{
  public:
    /**
     * @param machine Cost accounting.
     * @param name Diagnostic/counter prefix, e.g. "l2.net.tx".
     * @param size Ring capacity.
     */
    Virtqueue(Machine &machine, std::string name,
              std::size_t size = 256);

    const std::string &name() const { return name_; }

    // -- Driver side --------------------------------------------------
    /**
     * Post a buffer on the available ring (descriptor write costs).
     * A full available ring back-pressures the producer: the driver
     * is charged CostModel::ringFullWait (spinning until the device
     * frees a slot) and the `<name>.full` counter increments; the
     * buffer is never lost. A FaultSite::VirtioBackpressure injection
     * forces the same stall on a non-full ring.
     * @return True if the device must be notified (kick needed);
     *         false while the device is still processing the ring.
     */
    bool post(const VirtioBuffer &buf);

    /** Pop one completion off the used ring (null if empty). */
    bool popUsed(VirtioBuffer &out);

    bool usedFull() const { return used_.size() >= size_; }

    // -- Device side --------------------------------------------------
    /**
     * Device takes the next available buffer; an empty ring marks the
     * device idle (the next post kicks). Cost-free: the device
     * workers model per-buffer time as their service time, and event
     * handlers must not consume vCPU time.
     */
    bool take(VirtioBuffer &out);

    bool availEmpty() const { return avail_.empty(); }
    std::size_t availDepth() const { return avail_.size(); }

    /** Device returns a processed buffer on the used ring. */
    void complete(const VirtioBuffer &buf);

    /** Cost-free variant of complete() for event-context workers. */
    void completeQuiet(const VirtioBuffer &buf);

    /** Device declares it will keep polling the ring (EVENT_IDX-style
     *  kick suppression while the backend pipeline is busy). */
    void deviceBusy() { deviceRunning_ = true; }

  private:
    /** Update the avail-depth gauge and mirror it as a trace counter. */
    void noteAvailDepth();

    Machine &machine_;
    std::string name_;
    std::size_t size_;
    std::deque<VirtioBuffer> avail_;
    std::deque<VirtioBuffer> used_;
    bool deviceRunning_ = false;
    Counter postedMetric_;
    Counter kicksMetric_;
    Counter fullMetric_;
    Gauge availDepthMetric_;
};

} // namespace svtsim

#endif // SVTSIM_IO_VIRTQUEUE_H
