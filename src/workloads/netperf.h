/**
 * @file
 * netperf-style network benchmarks (Section 6.2):
 *  - TCP_RR: round-trip time of 1-byte transactions;
 *  - TCP_STREAM: throughput of 16 KB segments.
 * The peer is a bare-metal machine of the same configuration on the
 * other side of the 10 GbE link (Table 4): a NetserverPeer on the far
 * end of a CrossLink, on the same Machine or a second one.
 */

#ifndef SVTSIM_WORKLOADS_NETPERF_H
#define SVTSIM_WORKLOADS_NETPERF_H

#include <cstdint>

#include "arch/machine.h"
#include "hv/virt_stack.h"
#include "io/net_port.h"
#include "io/virtio_net.h"

namespace svtsim {

/** Result of a request/response (TCP_RR) run. */
struct NetperfRrResult
{
    double meanUsec = 0;
    double p99Usec = 0;
    std::uint64_t transactions = 0;
};

/** Result of a bulk-transfer (TCP_STREAM) run. */
struct NetperfStreamResult
{
    double mbps = 0;
    std::uint64_t segments = 0;
};

/**
 * Wire tags for netperf requests. The top byte of the packet payload
 * selects the peer behavior; the low bits carry the request
 * parameter.
 */
namespace peerwire {

constexpr std::uint64_t rrTag = 1;
constexpr std::uint64_t streamTag = 2;

/** RR request: the peer echoes @p resp_bytes after its turnaround. */
inline std::uint64_t
rrRequest(std::uint32_t resp_bytes)
{
    return (rrTag << 56) | resp_bytes;
}

/** STREAM segment: the peer acks every @p ack_every segments. */
inline std::uint64_t
streamSegment(std::uint32_t ack_every)
{
    return (streamTag << 56) | ack_every;
}

inline std::uint64_t
tagOf(std::uint64_t payload)
{
    return payload >> 56;
}

inline std::uint64_t
argOf(std::uint64_t payload)
{
    return payload & ((std::uint64_t{1} << 56) - 1);
}

} // namespace peerwire

/**
 * The netserver process on the bare-metal peer. Install it on the
 * peer's end of the link; it needs no cluster driver (every reaction
 * is an event on the peer's own queue): RR requests are echoed after
 * the peer turnaround time, STREAM segments are acknowledged
 * cumulatively.
 */
class NetserverPeer
{
  public:
    NetserverPeer(Machine &machine, NetPort &port);

    /** Segments received so far (tests/diagnostics). */
    std::uint64_t received() const { return received_; }

  private:
    void onRequest(NetPacket pkt);

    Machine &machine_;
    NetPort &port_;
    std::uint64_t received_ = 0;
    /** Segments of the current STREAM seen (the cumulative ack). */
    std::uint64_t streamRxed_ = 0;
};

/**
 * The netperf client running in the guest, peered with a
 * NetserverPeer. Under a cluster, run it from the client machine's
 * driver.
 */
class Netperf
{
  public:
    Netperf(VirtStack &stack, VirtioNetStack &net);

    /** TCP_RR: @p transactions rounds of a 1-byte request and a
     *  1-byte response (Figure 7's latency test). */
    NetperfRrResult runRr(int transactions);

    /**
     * TCP_STREAM: transmit @p seg_bytes segments for @p duration with
     * a send window of @p window segments; the peer acknowledges
     * every @p ack_every segments (delayed-ack + NIC coalescing).
     */
    NetperfStreamResult runStream(std::uint32_t seg_bytes,
                                  Ticks duration, int window = 128,
                                  int ack_every = 16);

  private:
    VirtStack &stack_;
    VirtioNetStack &net_;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_NETPERF_H
