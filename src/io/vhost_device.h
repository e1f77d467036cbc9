/**
 * @file
 * VhostDevice: the queue core shared by the nested virtio devices
 * (VirtioNetStack, VirtioBlkStack).
 *
 *   L2 driver --post/kick--> doorbell page q --> L1 eventfd
 *      --> poll(q) --vhostBuffer()--> the device's backend
 *   backend completion --> complete() --> coalescer --> L2 IRQ
 *
 * Each queue has a driver->device ring, a device->driver completion
 * ring with its IrqCoalescer (exit-elision ladder rung 2) and an L1
 * vhost worker on its own vCPU. With StackConfig::virtioQueues > 1
 * buffers are sharded by id and every queue gets its own doorbell
 * page.
 */

#ifndef SVTSIM_IO_VHOST_DEVICE_H
#define SVTSIM_IO_VHOST_DEVICE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "hv/virt_stack.h"
#include "io/async_stage.h"
#include "io/irq_coalescer.h"
#include "io/virtqueue.h"

namespace svtsim {

/** Guest-physical doorbell addresses of the modeled devices (in L2's
 *  physical space); queue q rings page q of the region. */
namespace ioaddr {

constexpr Gpa l2NetDoorbell = 0xfe000000;
constexpr Gpa l2BlkDoorbell = 0xfe010000;

} // namespace ioaddr

/**
 * The vhost queue machinery both virtio devices share: doorbells, the
 * polling rule, completion coalescing and the per-batch L1 EOI
 * charge. A device supplies the per-buffer backend (vhostBuffer) and
 * optionally a per-poll tail (vhostPolled).
 */
class VhostDevice
{
  public:
    virtual ~VhostDevice() = default;

    /** Doorbell handlers, poll events and coalescers hold `this`. */
    VhostDevice(const VhostDevice &) = delete;
    VhostDevice &operator=(const VhostDevice &) = delete;

    int queues() const { return queues_; }

    /** L1 interrupt batches handled so far. The L1-grade
     *  EOI/housekeeping traps are charged once per batch (not per
     *  buffer), so `l0.exit.MSR_WRITE` grows by exactly
     *  l1IoBackendTraps per batch. */
    std::uint64_t l1IrqBatches() const { return l1IrqBatches_; }

  protected:
    /**
     * @param dev Counter prefix ("net" -> `net.poll_rearm`).
     * @param ringName Driver->device ring prefix ("l2.net.tx").
     * @param complName Completion ring prefix ("l2.net.rx").
     * @param doorbell First doorbell page in L2's physical space.
     * @param l2Vector Interrupt the completion coalescers raise.
     */
    VhostDevice(VirtStack &stack, const char *dev, const char *ringName,
                const char *complName, Gpa doorbell,
                std::uint8_t l2Vector);

    struct Queue
    {
        /** Driver->device buffers. */
        Virtqueue ring;
        /** Device->driver completions. */
        Virtqueue completion;
        IrqCoalescer coalesce;
        /** L1's vhost worker (separate vCPU). */
        AsyncStage l1Worker{};
        bool pollScheduled = false;
        /** Last time the worker found work (busy-poll base). */
        Ticks lastDrain = -sec(1);
    };

    Queue &queue(int q) { return *qs_[static_cast<std::size_t>(q)]; }

    /** The queue buffer @p id is sharded to. */
    int
    queueOf(std::uint64_t id) const
    {
        return static_cast<int>(id % static_cast<std::uint64_t>(queues_));
    }

    /** Driver side: post @p buf on its queue's ring and ring the
     *  doorbell when the device is idle. */
    void post(const VirtioBuffer &buf);

    /** Queue @p q's L1 worker takes a job of @p service time after
     *  its wakeup; @return the completion time. */
    Ticks onL1Worker(int q, Ticks service);

    /** Device side: complete @p buf on its queue's completion ring
     *  (overflow panics) and note it to the coalescer. */
    void complete(const VirtioBuffer &buf);

    /** End of an L1 interrupt that completed buffers: charge the
     *  L1-grade EOI/housekeeping traps once for the whole batch. */
    void endL1Batch();

    VirtStack &stack_;

  private:
    /** The device backend for one drained buffer of queue @p q. */
    virtual void vhostBuffer(int q, const VirtioBuffer &buf) = 0;
    /** Runs after every poll of queue @p q; @p awake is true while
     *  the worker is busy or lingering. */
    virtual void vhostPolled(int, bool) {}

    /** Drain queue @p q into the backend and keep polling while the
     *  worker is busy or lingering (virtio EVENT_IDX, vhost
     *  busyloop_timeout). */
    void poll(int q);

    int queues_;
    Gpa doorbell_;
    std::vector<std::unique_ptr<Queue>> qs_;
    std::uint64_t l1IrqBatches_ = 0;
    /** Polls re-armed by the idle-tick guard. */
    Counter pollRearmMetric_;
};

} // namespace svtsim

#endif // SVTSIM_IO_VHOST_DEVICE_H
