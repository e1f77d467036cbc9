#include "io/virtio_net.h"

#include "hv/vectors.h"

namespace svtsim {

VirtioNetStack::VirtioNetStack(VirtStack &stack, NetPort &port)
    : VhostDevice(stack, "net", "l2.net.tx", "l2.net.rx",
                  ioaddr::l2NetDoorbell, vec::l2VirtioNet),
      port_(port), unreaped_(static_cast<std::size_t>(queues()), 0),
      l1Rx_(stack.machine(), "l1.net.rx")
{
    rxDropMetric_ = stack_.machine().metrics().counter(
        MetricScope::Machine, "virtio", "net.rx_drop");
    port_.setReceiveHandler([this](NetPacket pkt) { onWireRx(pkt); });

    stack_.setIrqHandler(0, vec::hostNic, [this] { l0NicIrq(); });
    stack_.setIrqHandler(1, vec::l1VirtioNet, [this] { l1NetIrq(); });
    stack_.setIrqHandler(2, vec::l2VirtioNet, [this] { l2NetIrq(); });
}

void
VirtioNetStack::setRxHandler(std::function<void(NetPacket)> handler)
{
    rxHandler_ = std::move(handler);
}

void
VirtioNetStack::send(std::uint32_t bytes, std::uint64_t id,
                     std::uint64_t payload)
{
    // Guest TCP/IP stack per segment.
    stack_.apiAt(2).compute(stack_.machine().costs().tcpStackPerSegment);
    post(VirtioBuffer{id, bytes, payload, false});
    ++txPackets_;
}

void
VirtioNetStack::vhostBuffer(int q, const VirtioBuffer &buf)
{
    Machine &m = stack_.machine();
    const CostModel &c = m.costs();
    Ticks l1_done = onL1Worker(
        q, c.vhostPerBuffer +
               static_cast<Ticks>(buf.bytes) * c.netCopyPerByte);
    Ticks l0_done = l0TxVhost_.completeAt(
        l1_done,
        c.nicPerPacket + static_cast<Ticks>(buf.bytes) * c.netCopyPerByte);
    NetPacket pkt{buf.id, buf.bytes, buf.payload};
    auto *port = &port_;
    m.events().schedule(l0_done, [port, pkt] { port->send(pkt); },
                        "vhost-tx");
    queue(q).ring.completeQuiet(buf);
    ++unreaped_[static_cast<std::size_t>(q)];
}

void
VirtioNetStack::vhostPolled(int q, bool awake)
{
    // Tx-completion interrupts are heavily suppressed (NAPI tx): the
    // guest reaps descriptors when the worker goes idle or when a
    // large batch has accumulated, not per segment.
    std::uint64_t &unreaped = unreaped_[static_cast<std::size_t>(q)];
    if (unreaped > 0 && (!awake || unreaped >= 64)) {
        unreaped = 0;
        stack_.raiseL2Irq(vec::l2VirtioNet);
    }
}

void
VirtioNetStack::onWireRx(NetPacket pkt)
{
    // Event context: the NIC DMA-ed the packet. The host IRQ fires
    // now; L0's vhost-net worker (separate core) copies the packet
    // into L1's rx ring and only then is L1's interrupt delivered.
    Machine &m = stack_.machine();
    const CostModel &c = m.costs();
    stack_.raiseHostIrq(vec::hostNic);
    Ticks done = l0RxVhost_.completeAt(
        m.now(), c.nicPerPacket + c.vhostPerBuffer +
                     static_cast<Ticks>(pkt.bytes) * c.netCopyPerByte);
    m.events().schedule(done, [this, pkt] {
        if (l1Rx_.usedFull()) {
            // L1 is overloaded: the NIC ring overruns and the packet
            // is dropped.
            rxDropMetric_.inc();
            return;
        }
        l1Rx_.completeQuiet(
            VirtioBuffer{pkt.id, pkt.bytes, pkt.payload, true});
        stack_.raiseL1Irq(vec::l1VirtioNet);
    }, "vhost-rx");
}

void
VirtioNetStack::l0NicIrq()
{
    // The host-side interrupt handler: ack the NIC and schedule NAPI;
    // the heavy lifting happens on the vhost worker.
    stack_.machine().consume(nsec(600));
}

void
VirtioNetStack::l1NetIrq()
{
    // L1 context (its vCPU took the virtio-net interrupt): receive,
    // then the vhost backend for L2 forwards into L2's rx rings
    // (sharded by packet id, the flow-hash stand-in).
    GuestApi &l1 = stack_.apiAt(1);
    const CostModel &c = stack_.machine().costs();
    VirtioBuffer buf;
    bool any = false;
    while (l1Rx_.popUsed(buf)) {
        l1.compute(c.vhostPerBuffer +
                   static_cast<Ticks>(buf.bytes) * c.netCopyPerByte);
        if (queue(queueOf(buf.id)).completion.usedFull()) {
            // The guest is not keeping up: the ring is full and the
            // packet is dropped, exactly like an overloaded virtio
            // queue.
            rxDropMetric_.inc();
            continue;
        }
        complete(buf);
        any = true;
    }
    if (any)
        endL1Batch();
}

void
VirtioNetStack::l2NetIrq()
{
    GuestApi &l2 = stack_.apiAt(2);
    const CostModel &c = stack_.machine().costs();
    VirtioBuffer buf;
    // Reap tx completions (skb freeing).
    for (int q = 0; q < queues(); ++q)
        while (queue(q).ring.popUsed(buf))
            l2.compute(c.memAccess * 8);
    for (int q = 0; q < queues(); ++q) {
        while (queue(q).completion.popUsed(buf)) {
            l2.compute(c.tcpStackPerSegment);
            ++rxPackets_;
            if (rxHandler_)
                rxHandler_(NetPacket{buf.id, buf.bytes, buf.payload});
        }
    }
}

} // namespace svtsim
