#include "workloads/netperf.h"

#include "sim/log.h"
#include "stats/summary.h"
#include "workloads/guest_os.h"

namespace svtsim {

NetserverPeer::NetserverPeer(Machine &machine, NetPort &port)
    : machine_(machine), port_(port)
{
    port_.setReceiveHandler(
        [this](NetPacket pkt) { onRequest(pkt); });
}

void
NetserverPeer::onRequest(NetPacket pkt)
{
    ++received_;
    switch (peerwire::tagOf(pkt.payload)) {
      case peerwire::rrTag: {
        const auto resp_bytes =
            static_cast<std::uint32_t>(peerwire::argOf(pkt.payload));
        machine_.events().scheduleIn(
            machine_.costs().remotePeerTurnaround,
            [this, pkt, resp_bytes] {
                port_.send(NetPacket{pkt.id, resp_bytes, pkt.payload});
            },
            "netserver-rr");
        break;
      }
      case peerwire::streamTag: {
        // Segment ids count from 0 in every stream: a new stream
        // restarts the cumulative count.
        if (pkt.id == 0)
            streamRxed_ = 0;
        ++streamRxed_;
        const auto ack_every = peerwire::argOf(pkt.payload);
        if (ack_every == 0)
            panic("NetserverPeer: STREAM segment with ack_every=0");
        if (streamRxed_ % ack_every == 0) {
            // Delayed ack + NIC interrupt moderation.
            const std::uint64_t acked = streamRxed_;
            machine_.events().scheduleIn(
                usec(2),
                [this, acked] {
                    port_.send(NetPacket{acked, 60, acked});
                },
                "netserver-ack");
        }
        break;
      }
      default:
        panic("NetserverPeer: packet with unknown wire tag %llu",
              static_cast<unsigned long long>(
                  peerwire::tagOf(pkt.payload)));
    }
}

Netperf::Netperf(VirtStack &stack, VirtioNetStack &net)
    : stack_(stack), net_(net)
{
}

NetperfRrResult
Netperf::runRr(int transactions)
{
    constexpr std::uint32_t kBytes = 1;
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();

    std::uint64_t received = 0;
    net_.setRxHandler([&](NetPacket) { ++received; });

    Percentiles lat;
    const std::uint64_t payload = peerwire::rrRequest(kBytes);
    // One warm-up transaction outside the measurement.
    int total = transactions + 1;
    for (int i = 0; i < total; ++i) {
        std::uint64_t want = received + 1;
        Ticks t0 = machine.now();
        net_.send(kBytes, static_cast<std::uint64_t>(i), payload);
        GuestOs::idleWait(api, [&] { return received >= want; });
        if (i > 0)
            lat.add(toUsec(machine.now() - t0));
    }
    // Under a cluster the machine keeps running as a follower after
    // the driver returns; nothing may reference this frame.
    net_.setRxHandler([](NetPacket) {});

    NetperfRrResult r;
    r.meanUsec = lat.mean();
    r.p99Usec = lat.p99();
    r.transactions = lat.count();
    return r;
}

NetperfStreamResult
Netperf::runStream(std::uint32_t seg_bytes, Ticks duration, int window,
                   int ack_every)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();
    if (window < ack_every)
        fatal("netperf stream window must cover the ack interval");

    std::uint64_t acked = 0;
    std::uint64_t sent = 0;
    net_.setRxHandler([&](NetPacket pkt) {
        // Cumulative acknowledgement from the netserver. Like TCP, an
        // ack beyond what this stream has sent is ignored: it is a
        // late ack of the previous stream's last segments.
        if (pkt.payload > acked && pkt.payload <= sent)
            acked = pkt.payload;
    });

    const std::uint64_t payload = peerwire::streamSegment(
        static_cast<std::uint32_t>(ack_every));
    Ticks end = machine.now() + duration;
    while (machine.now() < end) {
        if (sent - acked < static_cast<std::uint64_t>(window)) {
            net_.send(seg_bytes, sent, payload);
            ++sent;
        } else {
            std::uint64_t limit = sent;
            GuestOs::idleWait(api, [&] {
                return machine.now() >= end ||
                       limit - acked <
                           static_cast<std::uint64_t>(window);
            });
        }
    }
    net_.setRxHandler([](NetPacket) {});

    NetperfStreamResult r;
    r.segments = acked;
    double bits = static_cast<double>(acked) *
                  static_cast<double>(seg_bytes) * 8.0;
    r.mbps = bits / toSec(duration) / 1e6;
    return r;
}

} // namespace svtsim
