/**
 * @file
 * The nested virtio-net plumbing of the evaluation platform (Table 4:
 * "virtio-net-pci + vhost" at both L1 and L2):
 *
 *   L2 driver --kick--> L1 vhost --kick--> L0 vhost --> NIC --> wire
 *   wire --> NIC --> L0 IRQ --> L1 IRQ --> L2 IRQ --> L2 driver
 *
 * Every arrow that crosses a virtualization boundary goes through the
 * real trap paths of the VirtStack, so the exit structure (and its
 * cost under baseline / SW SVt / HW SVt) emerges mechanistically.
 *
 * The queue machinery (doorbells, tx polling, rx coalescing, the L1
 * EOI charge) is VhostDevice's: the tx ring is the driver->device
 * ring and L2's rx ring the completion ring of each queue.
 */

#ifndef SVTSIM_IO_VIRTIO_NET_H
#define SVTSIM_IO_VIRTIO_NET_H

#include <cstdint>
#include <functional>
#include <vector>

#include "io/net_port.h"
#include "io/vhost_device.h"

namespace svtsim {

/**
 * The full nested virtio-net stack plus its guest-driver interface.
 *
 * Requires a VirtStack in one of the nested modes. The L2-visible
 * driver interface (send / rx handler) is what the network workloads
 * program against.
 */
class VirtioNetStack : public VhostDevice
{
  public:
    /**
     * @param port The wire attachment: one end of a CrossLink, whose
     *             peer end is on the same machine or a second one.
     */
    VirtioNetStack(VirtStack &stack, NetPort &port);

    // -- L2 guest driver interface -------------------------------------
    /**
     * Transmit a segment: guest TCP/IP stack work, a descriptor and
     * (when the device is idle) a doorbell kick. Multi-queue shards
     * by @p id (the flow hash stand-in).
     */
    void send(std::uint32_t bytes, std::uint64_t id,
              std::uint64_t payload = 0);

    /** Handler invoked (in L2 interrupt context) per received
     *  segment. */
    void setRxHandler(std::function<void(NetPacket)> handler);

    // -- Statistics -------------------------------------------------------
    std::uint64_t txPackets() const { return txPackets_; }
    std::uint64_t rxPackets() const { return rxPackets_; }

  private:
    /** L1 vhost tx backend: through L0's vhost-net onto the wire. */
    void vhostBuffer(int q, const VirtioBuffer &buf) override;
    /** NAPI tx-completion moderation. */
    void vhostPolled(int q, bool awake) override;
    /** Wire delivery at the local NIC (event context). */
    void onWireRx(NetPacket pkt);
    /** L0 host IRQ: move packets into L1's rx ring. */
    void l0NicIrq();
    /** L1 IRQ: forward to L2's rx rings (vhost for L2). */
    void l1NetIrq();
    /** L2 IRQ: guest driver receive path (drains every queue). */
    void l2NetIrq();

    NetPort &port_;
    /** Per queue: consumed tx descriptors not yet reaped by the
     *  guest. */
    std::vector<std::uint64_t> unreaped_;
    Virtqueue l1Rx_;
    /** vhost-net tx worker in L0 (separate core) + NIC; shared by
     *  every queue (one physical NIC). */
    AsyncStage l0TxVhost_;
    /** vhost-net rx worker in L0 (separate core). */
    AsyncStage l0RxVhost_;
    std::function<void(NetPacket)> rxHandler_;
    std::uint64_t txPackets_ = 0;
    std::uint64_t rxPackets_ = 0;
    /** Packets dropped on an overrun rx ring (L0->L1 or L1->L2). */
    Counter rxDropMetric_;
};

} // namespace svtsim

#endif // SVTSIM_IO_VIRTIO_NET_H
