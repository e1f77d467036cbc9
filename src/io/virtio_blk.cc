#include "io/virtio_blk.h"

#include "hv/vectors.h"
#include "sim/log.h"

namespace svtsim {

VirtioBlkStack::VirtioBlkStack(VirtStack &stack, RamDisk &disk)
    : VhostDevice(stack, "blk", "l2.blk.q", "l2.blk.compl",
                  ioaddr::l2BlkDoorbell, vec::l2VirtioBlk),
      disk_(disk), l1Compl_(stack.machine(), "l1.blk.compl")
{
    disk_.setCompletionHandler(
        [this](std::uint64_t id) { onDiskComplete(id); });

    stack_.setIrqHandler(0, vec::hostDisk, [this] { l0DiskIrq(); });
    stack_.setIrqHandler(1, vec::l1VirtioBlk, [this] { l1BlkIrq(); });
    stack_.setIrqHandler(2, vec::l2VirtioBlk, [this] { l2BlkIrq(); });
}

void
VirtioBlkStack::setCompletionHandler(
    std::function<void(std::uint64_t)> fn)
{
    completionHandler_ = std::move(fn);
}

void
VirtioBlkStack::submit(std::uint64_t id, std::uint64_t lba,
                       std::uint32_t bytes, bool write)
{
    inflight_[id] = Request{lba, bytes, write};
    post(VirtioBuffer{id, bytes, lba, !write});
}

void
VirtioBlkStack::vhostBuffer(int q, const VirtioBuffer &buf)
{
    // L1's I/O thread does the filesystem work on L2's image file (a
    // file in L1's ramfs): block layer + page-cache copy.
    Machine &m = stack_.machine();
    const CostModel &c = m.costs();
    auto it = inflight_.find(buf.id);
    simAssert(it != inflight_.end(), "unknown blk request");
    Request req = it->second;
    Ticks fs = c.blockLayerPerRequest +
               static_cast<Ticks>(req.bytes) * c.diskCopyPerByte;
    if (req.write)
        fs += c.blockWriteSurcharge;
    // L0's vhost-blk picks the request off L1's own virtio disk (the
    // kick there comes from L1's I/O thread, not from the measured
    // vCPU) and hands it to the ramdisk.
    Ticks l0_done =
        l0BlkWorker_.completeAt(onL1Worker(q, fs), c.vhostPerBuffer);
    m.events().schedule(l0_done, [this, id = buf.id, req] {
        disk_.submit(id, req.lba, req.bytes, req.write);
    }, "vhost-blk");
}

void
VirtioBlkStack::onDiskComplete(std::uint64_t id)
{
    // Event context: host storage completion interrupt.
    l0Backlog_.push_back(id);
    stack_.raiseHostIrq(vec::hostDisk);
}

void
VirtioBlkStack::l0DiskIrq()
{
    Machine &m = stack_.machine();
    const CostModel &c = m.costs();
    while (!l0Backlog_.empty()) {
        std::uint64_t id = l0Backlog_.front();
        l0Backlog_.pop_front();
        m.consume(c.vhostPerBuffer);
        auto it = inflight_.find(id);
        simAssert(it != inflight_.end(), "unknown blk completion");
        l1Compl_.complete(
            VirtioBuffer{id, it->second.bytes, it->second.lba, true});
        stack_.raiseL1Irq(vec::l1VirtioBlk);
    }
}

void
VirtioBlkStack::l1BlkIrq()
{
    // L1 context: complete its own virtio request, copy data back
    // through the page cache, complete L2's request.
    GuestApi &l1 = stack_.apiAt(1);
    const CostModel &c = stack_.machine().costs();
    VirtioBuffer buf;
    bool any = false;
    while (l1Compl_.popUsed(buf)) {
        l1.compute(c.vhostPerBuffer +
                   static_cast<Ticks>(buf.bytes) * c.diskCopyPerByte);
        complete(buf);
        any = true;
    }
    if (any)
        endL1Batch();
}

void
VirtioBlkStack::l2BlkIrq()
{
    const CostModel &c = stack_.machine().costs();
    GuestApi &l2 = stack_.apiAt(2);
    VirtioBuffer buf;
    for (int q = 0; q < queues(); ++q) {
        while (queue(q).completion.popUsed(buf)) {
            // Guest block layer completion path.
            l2.compute(c.blockLayerPerRequest / 2);
            ++completed_;
            inflight_.erase(buf.id);
            if (completionHandler_)
                completionHandler_(buf.id);
        }
    }
}

} // namespace svtsim
