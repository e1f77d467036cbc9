/**
 * @file
 * The physical network: a point-to-point 10 GbE wire (Table 4's Intel
 * X540-AT2) between the device under test and a bare-metal peer.
 *
 * A CrossLink models propagation latency plus per-direction
 * serialization at link rate. Serialization is a per-direction "link
 * free at" horizon, so back-to-back large segments queue behind each
 * other and the STREAM workloads saturate at line rate.
 *
 * Both ends may live on one Machine: a send then schedules the
 * delivery straight into the shared event queue. When the ends live
 * on *different* Machines (different EventQueues), a packet sent
 * during a cluster epoch is not scheduled into the remote queue
 * immediately (the remote machine may be advancing concurrently on
 * another worker); it is staged in a per-direction buffer, tagged
 * (deliveryTick, srcMachineId, seq), and merged into the destination
 * queue by the Cluster at the epoch barrier in that canonical order.
 * The merge order is a pure function of simulated behavior — never of
 * worker count or wall-clock interleaving — which is what makes a
 * cluster run byte-identical for any --cluster-jobs value.
 *
 * The link's propagation latency is the conservative lookahead: a
 * packet sent at local time t arrives at t + serialization + latency,
 * so with epoch horizons H' <= min(machine floors) + min(latency) no
 * staged arrival can land in simulated time a machine has already
 * executed past (DESIGN.md "Parallel cluster engine" has the full
 * argument).
 */

#ifndef SVTSIM_IO_CROSS_LINK_H
#define SVTSIM_IO_CROSS_LINK_H

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/machine.h"
#include "io/net_port.h"

namespace svtsim {

/** Point-to-point link; staged delivery between two Machines. */
class CrossLink
{
  public:
    /**
     * One staged packet delivery, exposed so the Cluster barrier can
     * merge deliveries from many links into one canonical sequence.
     */
    struct Delivery
    {
        Ticks arrival = 0;
        int srcId = 0;
        int dstId = 0;
        /** Per-direction send sequence (ties same-tick arrivals). */
        std::uint64_t seq = 0;
        NetPacket pkt;
        CrossLink *link = nullptr;
        /** Direction index: 0 = end0 -> end1, 1 = end1 -> end0. */
        int dir = 0;
    };

    /**
     * @param a,idA   Machine (and cluster machine id) at end 0.
     * @param b,idB   Machine (and cluster machine id) at end 1.
     * @param latency One-way propagation delay; between two machines
     *                it must be > 0, it is the conservative lookahead
     *                this link grants.
     */
    CrossLink(Machine &a, int idA, Machine &b, int idB, Ticks latency,
              double bits_per_sec);

    /**
     * Both ends on @p machine: end 0 is the device under test, end 1
     * the peer. Sends deliver into the shared queue at send time, so
     * no lookahead is involved and @p latency may be 0.
     */
    CrossLink(Machine &machine, Ticks latency, double bits_per_sec);

    CrossLink(const CrossLink &) = delete;
    CrossLink &operator=(const CrossLink &) = delete;

    /** The NetPort at end 0 (machine a) / end 1 (machine b). */
    NetPort &port(int end);

    /** Packets delivered *to* @p end so far. */
    std::uint64_t delivered(int end) const
    {
        return dirs_[end == 0 ? 1 : 0].delivered;
    }

    /** Packets currently staged (both directions; tests/diagnostics).
     *  Always 0 on a same-machine link. */
    std::size_t stagedCount() const
    {
        return dirs_[0].staged.size() + dirs_[1].staged.size();
    }

    /**
     * Move every staged delivery of both directions into @p out
     * (unsorted). Called by the Cluster coordinator at the barrier;
     * the caller sorts canonically across all links and then calls
     * deliver() per entry.
     */
    void drainStaged(std::vector<Delivery> &out);

    /**
     * Schedule one drained delivery into its destination queue. Must
     * run while the destination machine is quiescent (at the epoch
     * barrier). Panics if the destination end never installed a
     * receive handler, or if the arrival lies in the destination's
     * past (a lookahead/horizon bug).
     */
    void deliver(const Delivery &d);

    /** Canonical merge order: (deliveryTick, srcMachineId, seq). */
    static bool
    canonicalLess(const Delivery &x, const Delivery &y)
    {
        if (x.arrival != y.arrival)
            return x.arrival < y.arrival;
        if (x.srcId != y.srcId)
            return x.srcId < y.srcId;
        return x.seq < y.seq;
    }

    /**
     * Standalone drain-sort-deliver of this link's staged packets
     * (unit tests and single-link setups without a Cluster).
     */
    void deliverStaged();

  private:
    friend class NetPort;

    /** One direction of the wire (src end -> dst end). */
    struct Direction
    {
        Machine *src = nullptr;
        Machine *dst = nullptr;
        int srcId = 0;
        int dstId = 0;
        /** Link-busy horizon for serialization queueing. */
        Ticks freeAt = 0;
        std::uint64_t sendSeq = 0;
        std::uint64_t delivered = 0;
        std::function<void(NetPacket)> handler;
        std::vector<Delivery> staged;
    };

    /** Send toward the far end: schedule the delivery on a
     *  same-machine link, stage it for the barrier otherwise. */
    void send(int dirIdx, const NetPacket &pkt);

    /** Schedule @p pkt into @p dir's destination queue at @p arrival. */
    static void schedule(Direction *dir, Ticks arrival,
                         const NetPacket &pkt);

    Ticks latency_;
    std::int64_t bitsPerSec_;
    /** [0] end0 -> end1, [1] end1 -> end0. */
    Direction dirs_[2];
    NetPort ports_[2];
};

} // namespace svtsim

#endif // SVTSIM_IO_CROSS_LINK_H
