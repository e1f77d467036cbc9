/**
 * @file
 * memcached + mutilate (Section 6.3.1): the Facebook ETC request mix
 * and the load-point record. The server and the client that use them
 * live in workloads/remote_peer.h.
 */

#ifndef SVTSIM_WORKLOADS_MEMCACHED_H
#define SVTSIM_WORKLOADS_MEMCACHED_H

#include <cstdint>

#include "io/net_port.h"
#include "sim/random.h"

namespace svtsim {

/** Facebook ETC request distributions (Atikoglu et al. 2012). */
struct EtcWorkload
{
    /** Fraction of GETs (ETC is read-dominated). */
    static constexpr double getRatio = 0.97;
    /** Value sizes: generalized Pareto (bytes). */
    static constexpr double valueLocation = 0.0;
    static constexpr double valueScale = 214.48;
    static constexpr double valueShape = 0.348;
    /** Cap for the value-size tail. */
    static constexpr std::uint32_t valueCap = 8192;
    /** Key sizes: roughly 16-40 bytes. */
    static constexpr std::uint32_t keyMin = 16;
    static constexpr std::uint32_t keyMax = 40;

    std::uint32_t sampleValueSize(Rng &rng) const;
    std::uint32_t sampleKeySize(Rng &rng) const;
    bool isGet(Rng &rng) const { return rng.chance(getRatio); }

    /**
     * Sample request @p id as mutilate puts it on the wire: the value
     * size and the GET bit ride in the payload for the server to
     * decode (MemcachedServer's receive handler).
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

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_MEMCACHED_H
