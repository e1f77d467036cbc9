/**
 * @file
 * memcached + mutilate (Section 6.3.1): a key-value store in the
 * nested guest serving Facebook's ETC workload from an open-loop
 * client on the peer machine; latency measured at the client against
 * a 500 us 99th-percentile SLA.
 */

#ifndef SVTSIM_WORKLOADS_MEMCACHED_H
#define SVTSIM_WORKLOADS_MEMCACHED_H

#include <deque>
#include <functional>

#include "hv/virt_stack.h"
#include "io/net_port.h"
#include "io/virtio_net.h"
#include "sim/random.h"
#include "stats/summary.h"

namespace svtsim {

/** Facebook ETC request distributions (Atikoglu et al. 2012). */
struct EtcWorkload
{
    /** Fraction of GETs (ETC is read-dominated). */
    double getRatio = 0.97;
    /** Value sizes: generalized Pareto (bytes). */
    double valueLocation = 0.0;
    double valueScale = 214.48;
    double valueShape = 0.348;
    /** Cap for the value-size tail. */
    std::uint32_t valueCap = 8192;
    /** Key sizes: roughly 16-40 bytes. */
    std::uint32_t keyMin = 16;
    std::uint32_t keyMax = 40;

    std::uint32_t sampleValueSize(Rng &rng) const;
    std::uint32_t sampleKeySize(Rng &rng) const;
    bool isGet(Rng &rng) const { return rng.chance(getRatio); }

    /**
     * Sample request @p id as mutilate puts it on the wire: the value
     * size and the GET bit ride in the payload for the server to
     * decode (MemcachedService::receive).
     */
    NetPacket sampleRequest(Rng &rng, std::uint64_t id) const;
};

/** One measured load point of the latency-vs-throughput curve. */
struct MemcachedPoint
{
    double offeredQps = 0;
    double achievedQps = 0;
    double avgUsec = 0;
    double p99Usec = 0;
    std::uint64_t completed = 0;
};

/**
 * memcached's serving loop in the guest, shared by MemcachedBench and
 * MemcachedServer: the connection inbox, the per-request work (parse,
 * hash lookup, LRU bookkeeping, value access) and the response.
 */
class MemcachedService
{
  public:
    MemcachedService(VirtStack &stack, VirtioNetStack &net);

    /** Queue a request that arrived under the receive interrupt. */
    void receive(const NetPacket &pkt);

    /**
     * Serve until the clock reaches @p end, drain the backlog, then
     * keep serving stragglers through a 5 ms grace period, which ends
     * early once @p drained() holds. Returns requests served.
     */
    std::uint64_t serveUntil(Ticks end,
                             const std::function<bool()> &drained);

  private:
    struct Request
    {
        std::uint64_t id;
        bool get;
        std::uint32_t valueBytes;
    };

    void serveOne();

    VirtStack &stack_;
    VirtioNetStack &net_;
    std::deque<Request> inbox_;
};

/**
 * The memcached server (at the stack's top level) plus the mutilate
 * open-loop client on the bare-metal peer, both on one Machine.
 */
class MemcachedBench
{
  public:
    /**
     * @param peer The client's end of the link @p net is attached to.
     * @param l1_housekeeping_rate_hz Background rate of L1-kernel
     *        housekeeping (scheduler ticks, RCU) interfering with the
     *        serving vCPU (0 disables).
     * @param l1_housekeeping_cost Cost of each event.
     * @param l1_housekeeping_per_request Load-proportional L1 work
     *        (vhost bookkeeping, irqfd signalling on the paired L1
     *        vCPU) in events per request. Serviced serially in the
     *        baseline; overlapped by the SVt-thread in SW SVt.
     */
    MemcachedBench(VirtStack &stack, VirtioNetStack &net,
                   NetPort &peer, std::uint64_t seed = 42,
                   double l1_housekeeping_rate_hz = 1000.0,
                   Ticks l1_housekeeping_cost = usec(14.5),
                   double l1_housekeeping_per_request = 0.9);

    /** Run one open-loop load point (Poisson arrivals at @p qps). */
    MemcachedPoint runLoad(double qps, Ticks duration);

  private:
    void scheduleHousekeeping(Ticks end);

    VirtStack &stack_;
    VirtioNetStack &net_;
    NetPort &peer_;
    MemcachedService service_;
    Rng rng_;
    EtcWorkload etc_;
    double housekeepingRate_;
    Ticks housekeepingCost_;
    double housekeepingPerRequest_;
    std::uint64_t nextId_ = 1;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_MEMCACHED_H
