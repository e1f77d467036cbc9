/**
 * @file
 * The nested virtio-blk plumbing (Table 4: "virtio disk @ ramfs" at
 * both L1 and L2):
 *
 *   L2 driver --kick--> L1 vhost-blk (L2 image on L1's ramfs)
 *      --kick--> L0 vhost-blk --> RamDisk
 *   completion --> L0 IRQ --> L1 IRQ --> L2 IRQ --> completion cb
 *
 * The queue machinery (doorbells, polling, completion coalescing, the
 * L1 EOI charge) is VhostDevice's; this class adds the file backend
 * and the request map.
 */

#ifndef SVTSIM_IO_VIRTIO_BLK_H
#define SVTSIM_IO_VIRTIO_BLK_H

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "io/ramdisk.h"
#include "io/vhost_device.h"

namespace svtsim {

/**
 * The full nested virtio-blk stack plus its L2 driver interface.
 */
class VirtioBlkStack : public VhostDevice
{
  public:
    VirtioBlkStack(VirtStack &stack, RamDisk &disk);

    // -- L2 guest driver interface --------------------------------------
    /** Submit a request; the completion handler fires in L2 interrupt
     *  context. Multi-queue shards by @p id. */
    void submit(std::uint64_t id, std::uint64_t lba,
                std::uint32_t bytes, bool write);

    void setCompletionHandler(std::function<void(std::uint64_t)> fn);

    std::uint64_t completedCount() const { return completed_; }

  private:
    struct Request
    {
        std::uint64_t lba;
        std::uint32_t bytes;
        bool write;
    };

    /** L1's file backend on L2's image, then L0's vhost-blk into
     *  the ramdisk. */
    void vhostBuffer(int q, const VirtioBuffer &buf) override;
    void onDiskComplete(std::uint64_t id);
    void l0DiskIrq();
    void l1BlkIrq();
    void l2BlkIrq();

    RamDisk &disk_;
    Virtqueue l1Compl_;
    /** L0's vhost-blk worker (separate core), shared (one disk). */
    AsyncStage l0BlkWorker_;
    std::deque<std::uint64_t> l0Backlog_;
    std::unordered_map<std::uint64_t, Request> inflight_;
    std::function<void(std::uint64_t)> completionHandler_;
    std::uint64_t completed_ = 0;
};

} // namespace svtsim

#endif // SVTSIM_IO_VIRTIO_BLK_H
