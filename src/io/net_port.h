/**
 * @file
 * Wire-side view of a network attachment point.
 *
 * A NetPort is what a NIC model (VirtioNetStack) or a bare-metal
 * workload plugs into: transmit toward the remote end, register one
 * receive handler. It is one end of a CrossLink, whose two ends live
 * either on one Machine (the peer is a handler inside the DUT's own
 * event queue) or on two (delivery crosses event queues through the
 * cluster engine's staged epoch merge).
 */

#ifndef SVTSIM_IO_NET_PORT_H
#define SVTSIM_IO_NET_PORT_H

#include <cstdint>
#include <functional>

#include "sim/ticks.h"

namespace svtsim {

class CrossLink;

/** One packet on the wire. */
struct NetPacket
{
    std::uint64_t id = 0;
    std::uint32_t bytes = 0;
    std::uint64_t payload = 0;
};

/** One end of a CrossLink (see io/cross_link.h). */
class NetPort
{
  public:
    NetPort(const NetPort &) = delete;
    NetPort &operator=(const NetPort &) = delete;

    /** Transmit toward the remote end of the wire. */
    void send(const NetPacket &pkt);

    /**
     * Install the receive handler for packets arriving at this end.
     * The handler is stored once and invoked in event context per
     * delivered packet; it is not copied on the delivery hot path.
     */
    void setReceiveHandler(std::function<void(NetPacket)> handler);

    /** Serialization time of @p bytes at link rate (with framing). */
    Ticks serialization(std::uint32_t bytes) const;

  private:
    friend class CrossLink;
    NetPort() = default;

    CrossLink *link_ = nullptr;
    /** Direction index of packets sent *from* this end. */
    int outDir_ = 0;
};

namespace netlink {

/** Ethernet + IP + TCP framing per segment. */
constexpr std::uint32_t framingBytes = 78;

/**
 * Serialization delay of a frame on a link of @p bitsPerSec, as an
 * exact integer computation: ticks are picoseconds, so
 * bits * 10^12 / rate with 128-bit intermediate — no double rounding
 * whose last ulp could differ across platforms/FPU modes and break
 * cross-host byte-identity of link timing.
 */
inline Ticks
serializationTicks(std::uint32_t bytes, std::int64_t bitsPerSec)
{
    const auto bits =
        static_cast<unsigned __int128>(bytes + framingBytes) * 8u;
    return static_cast<Ticks>(
        bits * 1000000000000ull /
        static_cast<unsigned __int128>(bitsPerSec));
}

} // namespace netlink

} // namespace svtsim

#endif // SVTSIM_IO_NET_PORT_H
