#include "io/cross_link.h"

#include <algorithm>
#include <cmath>

#include "sim/compiler.h"
#include "sim/fault.h"
#include "sim/log.h"

namespace svtsim {

void
NetPort::send(const NetPacket &pkt)
{
    link_->send(outDir_, pkt);
}

void
NetPort::setReceiveHandler(std::function<void(NetPacket)> handler)
{
    link_->dirs_[outDir_ ^ 1].handler = std::move(handler);
}

Ticks
NetPort::serialization(std::uint32_t bytes) const
{
    return netlink::serializationTicks(bytes, link_->bitsPerSec_);
}

CrossLink::CrossLink(Machine &a, int idA, Machine &b, int idB,
                     Ticks latency, double bits_per_sec)
    : latency_(latency), bitsPerSec_(std::llround(bits_per_sec))
{
    if (bitsPerSec_ <= 0)
        fatal("CrossLink requires a positive link rate");
    if (&a != &b && latency <= 0)
        fatal("CrossLink requires a positive latency "
              "(it is the conservative lookahead)");
    dirs_[0] = Direction{&a, &b, idA, idB, 0, 0, 0, {}, {}};
    dirs_[1] = Direction{&b, &a, idB, idA, 0, 0, 0, {}, {}};
    for (int end : {0, 1}) {
        ports_[end].link_ = this;
        ports_[end].outDir_ = end;
    }
}

CrossLink::CrossLink(Machine &machine, Ticks latency,
                     double bits_per_sec)
    : CrossLink(machine, 0, machine, 0, latency, bits_per_sec)
{
}

NetPort &
CrossLink::port(int end)
{
    simAssert(end == 0 || end == 1, "CrossLink::port bad end");
    return ports_[end];
}

void
CrossLink::schedule(Direction *dir, Ticks arrival, const NetPacket &pkt)
{
    // The closure holds a Direction pointer plus the packet (fits the
    // inline EventClosure buffer); the handler is invoked in place,
    // never copied per delivery.
    dir->dst->events().schedule(arrival, [dir, pkt] {
        ++dir->delivered;
        dir->handler(pkt);
    }, "cross-link");
}

void
CrossLink::send(int dirIdx, const NetPacket &pkt)
{
    // Runs on the sending machine's executing thread. Between two
    // machines it runs inside the sender's epoch window: only
    // src-side state is touched; nothing crosses to the destination
    // queue until the barrier merge.
    Direction &dir = dirs_[dirIdx];
    const bool local = dir.src == dir.dst;
    if (local && !dir.handler)
        panic("CrossLink: send with no receiver configured");
    const Ticks now = dir.src->now();
    const Ticks start = std::max(now, dir.freeAt);
    const Ticks done =
        start + netlink::serializationTicks(pkt.bytes, bitsPerSec_);
    dir.freeAt = done;
    Ticks arrival = done + latency_;
    if (FaultInjector *faults = dir.src->events().faultInjector();
        SVTSIM_UNLIKELY(faults != nullptr))
        arrival += faults->delay(FaultSite::VirtioCompletionDelay);
    if (local)
        schedule(&dir, arrival, pkt);
    else
        dir.staged.push_back(Delivery{arrival, dir.srcId, dir.dstId,
                                      dir.sendSeq++, pkt, this,
                                      dirIdx});
}

void
CrossLink::drainStaged(std::vector<Delivery> &out)
{
    for (Direction &dir : dirs_) {
        out.insert(out.end(), dir.staged.begin(), dir.staged.end());
        dir.staged.clear();
    }
}

void
CrossLink::deliver(const Delivery &d)
{
    Direction *dir = &dirs_[d.dir];
    if (!dir->handler)
        panic("CrossLink: delivery with no receive handler at the "
              "destination end");
    if (d.arrival < dir->dst->now())
        panic("CrossLink: staged arrival %lld is in the destination's "
              "past (now=%lld) — lookahead/horizon bug",
              static_cast<long long>(d.arrival),
              static_cast<long long>(dir->dst->now()));
    schedule(dir, d.arrival, d.pkt);
}

void
CrossLink::deliverStaged()
{
    std::vector<Delivery> all;
    drainStaged(all);
    std::stable_sort(all.begin(), all.end(), canonicalLess);
    for (const Delivery &d : all)
        deliver(d);
}

} // namespace svtsim
