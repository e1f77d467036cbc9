#include "io/vhost_device.h"

#include <algorithm>
#include <string>

#include "sim/log.h"

namespace svtsim {

namespace {

/** Queue-suffixed counter prefix; the single-queue name matches the
 *  pre-multi-queue schema ("l2.net.tx", not "l2.net.tx.q0"). */
std::string
qname(const char *base, int q, int queues)
{
    if (queues == 1)
        return base;
    return std::string(base) + ".q" + std::to_string(q);
}

} // namespace

VhostDevice::VhostDevice(VirtStack &stack, const char *dev,
                         const char *ringName, const char *complName,
                         Gpa doorbell, std::uint8_t l2Vector)
    : stack_(stack), queues_(stack.config().virtioQueues),
      doorbell_(doorbell)
{
    Machine &m = stack_.machine();
    const StackConfig &cfg = stack_.config();
    for (int q = 0; q < queues_; ++q) {
        std::string compl_name = qname(complName, q, queues_);
        qs_.emplace_back(new Queue{
            Virtqueue(m, qname(ringName, q, queues_)),
            Virtqueue(m, compl_name),
            IrqCoalescer(m, compl_name + ".coalesce",
                         cfg.virtioCoalesceCount, cfg.virtioCoalesceTimeout,
                         [this, l2Vector] { stack_.raiseL2Irq(l2Vector); })});
    }
    pollRearmMetric_ = m.metrics().counter(
        MetricScope::Machine, "virtio", std::string(dev) + ".poll_rearm");
    // L2's device is emulated by L1 (vhost in L1's kernel). KVM's side
    // of a kick only signals the worker's eventfd; the buffer work
    // happens on the vhost threads, off the measured vCPU.
    stack_.l1Hv().registerMmio(
        doorbell_, static_cast<std::uint64_t>(queues_) * pageSize,
        [this, dev](Gpa addr, int, std::uint64_t, bool) -> std::uint64_t {
            int q = static_cast<int>((addr - doorbell_) / pageSize);
            if (q < 0 || q >= queues_)
                panic("virtio-%s doorbell for queue %d of %d", dev, q,
                      queues_);
            stack_.apiAt(1).compute(nsec(400)); // eventfd signal
            poll(q);
            return 0;
        });
}

void
VhostDevice::post(const VirtioBuffer &buf)
{
    int q = queueOf(buf.id);
    if (queue(q).ring.post(buf))
        stack_.apiAt(2).mmioWrite(
            doorbell_ + static_cast<Gpa>(q) * pageSize, 4, 1);
}

Ticks
VhostDevice::onL1Worker(int q, Ticks service)
{
    Machine &m = stack_.machine();
    return queue(q).l1Worker.completeAt(
        m.now() + m.costs().l1IoThreadWake, service);
}

void
VhostDevice::complete(const VirtioBuffer &buf)
{
    Queue &vq = queue(queueOf(buf.id));
    vq.completion.complete(buf);
    vq.coalesce.note();
}

void
VhostDevice::endL1Batch()
{
    // L1-grade sensitive housekeeping per *interrupt* (its own EOI,
    // irqfd signalling, TPR updates), however many buffers the batch
    // completed.
    ++l1IrqBatches_;
    GuestApi &l1 = stack_.apiAt(1);
    for (int i = 0; i < stack_.machine().costs().l1IoBackendTraps; ++i)
        l1.wrmsr(msr::ia32X2apicEoi, 0);
}

void
VhostDevice::poll(int q)
{
    Machine &m = stack_.machine();
    Queue &vq = queue(q);
    VirtioBuffer buf;
    bool drained_any = false;
    while (vq.ring.take(buf)) {
        drained_any = true;
        vhostBuffer(q, buf);
    }
    if (drained_any)
        vq.lastDrain = m.now();
    // The worker keeps polling the ring while its pipeline is busy
    // (virtio EVENT_IDX) and for a busy-poll linger window after the
    // last drained buffer (vhost busyloop_timeout): a bulk driver
    // posts buffers without paying a doorbell exit for each.
    bool awake = vq.l1Worker.freeAt() > m.now() ||
                 m.now() - vq.lastDrain <= m.costs().vhostLingerPoll;
    bool repoll = awake;
    if (!repoll && !vq.ring.availEmpty()) {
        // A buffer landed at the exact tick the worker drained the
        // ring empty: its kick was suppressed while we ran, so going
        // idle now would strand it. Re-arm one more poll.
        repoll = true;
        pollRearmMetric_.inc();
    }
    if (repoll) {
        vq.ring.deviceBusy();
        if (!vq.pollScheduled) {
            vq.pollScheduled = true;
            Ticks cadence =
                std::max(vq.l1Worker.freeAt() - m.now(), usec(10));
            m.events().scheduleIn(cadence, [this, q] {
                queue(q).pollScheduled = false;
                poll(q);
            }, "vhost-poll");
        }
    }
    vhostPolled(q, awake);
}

} // namespace svtsim
