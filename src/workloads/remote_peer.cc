#include "workloads/remote_peer.h"

#include <algorithm>

#include "sim/log.h"
#include "workloads/guest_os.h"

namespace svtsim {

MutilateClient::MutilateClient(Machine &machine, std::uint64_t seed)
    : machine_(machine), seed_(seed)
{
}

MutilateClient::MutilateClient(Machine &machine, NetPort &port,
                               std::uint64_t seed)
    : MutilateClient(machine, seed)
{
    addFlow(port, 0);
}

int
MutilateClient::addFlow(NetPort &port, double qps)
{
    const std::uint64_t seed = seed_ + flows_.size();
    flows_.push_back(std::make_unique<Flow>(port, qps, seed));
    return flowCount() - 1;
}

void
MutilateClient::arm(Flow &flow, Ticks end)
{
    Machine &m = machine_;
    const Ticks gap = std::max<Ticks>(
        static_cast<Ticks>(flow.rng.exponential(1e12 / flow.qps)), 1);
    const Ticks when = m.now() + gap;
    if (when >= end)
        return;
    m.events().schedule(when, [this, &flow, end] {
        const NetPacket req = etc_.sampleRequest(flow.rng, flow.nextId++);
        flow.inflight[req.id] = machine_.now();
        ++flow.stats.sent;
        flow.port.send(req);
        arm(flow, end);
    }, "mutilate-arrival");
}

void
MutilateClient::run(Ticks duration)
{
    Machine &m = machine_;
    const Ticks end = m.now() + duration;
    for (auto &flowp : flows_) {
        Flow &flow = *flowp;
        flow.inflight.clear();
        flow.stats = FlowStats{};
        // mutilate measures the full round trip at the client.
        flow.port.setReceiveHandler([&flow, &m](NetPacket pkt) {
            auto it = flow.inflight.find(pkt.id);
            if (it != flow.inflight.end()) {
                flow.stats.latency.add(toUsec(m.now() - it->second));
                flow.inflight.erase(it);
                ++flow.stats.completed;
            }
        });
        arm(flow, end);
    }
    // Idle through the run plus the drain grace (requests dropped
    // under overload never complete; the grace bounds the wait).
    // Under a cluster gate idleUntil can return early at an epoch
    // boundary, so loop until the clock really arrives.
    const Ticks drained = end + msec(5);
    while (m.now() < drained)
        m.idleUntil(drained);
    for (auto &flowp : flows_)
        flowp->port.setReceiveHandler([](NetPacket) {});
}

MemcachedPoint
MutilateClient::runLoad(double qps, Ticks duration)
{
    simAssert(flowCount() == 1, "MutilateClient::runLoad needs one flow");
    flows_[0]->qps = qps;
    const Ticks t0 = machine_.now();
    run(duration);

    const FlowStats &s = flows_[0]->stats;
    MemcachedPoint point;
    point.offeredQps = qps;
    point.completed = s.completed;
    point.achievedQps =
        static_cast<double>(s.completed) / toSec(machine_.now() - t0);
    if (s.latency.count()) {
        point.avgUsec = s.latency.mean();
        point.p99Usec = s.latency.p99();
    }
    return point;
}

namespace {

/** Background L1-kernel housekeeping (scheduler ticks, RCU) that
 *  interferes with the serving vCPU: its rate and the cost of each
 *  event. */
constexpr double kHousekeepingRateHz = 1000.0;
constexpr Ticks kHousekeepingCost = usec(14.5);

} // namespace

MemcachedServer::MemcachedServer(VirtStack &stack, VirtioNetStack &net,
                                 std::uint64_t seed,
                                 double l1_housekeeping_per_request)
    : stack_(stack), net_(net), rng_(seed),
      housekeepingPerRequest_(l1_housekeeping_per_request)
{
}

void
MemcachedServer::receive(const NetPacket &pkt)
{
    // The request lands in the connection inbox under the receive
    // interrupt and triggers the load-proportional L1-kernel work
    // (vhost bookkeeping on the paired vCPU).
    inbox_.push_back(Request{
        pkt.id, (pkt.payload & 1) != 0,
        static_cast<std::uint32_t>(pkt.payload >> 1)});
    double events = housekeepingPerRequest_;
    while (events >= 1.0 || rng_.chance(events)) {
        stack_.postL1Housekeeping(kHousekeepingCost);
        events -= 1.0;
        if (events <= 0)
            break;
    }
}

void
MemcachedServer::serveOne()
{
    Request req = inbox_.front();
    inbox_.pop_front();
    // Parse + hash lookup + LRU bookkeeping + value access.
    Ticks service =
        usec(1.6) + static_cast<Ticks>(req.valueBytes) * psec(40);
    if (!req.get)
        service += usec(1.1); // allocation + store
    stack_.api().compute(service);
    std::uint32_t resp_bytes = req.get ? 28 + req.valueBytes : 28;
    net_.send(resp_bytes, req.id);
}

void
MemcachedServer::scheduleHousekeeping(Ticks end)
{
    Machine &m = stack_.machine();
    Ticks gap = static_cast<Ticks>(
        rng_.exponential(1e12 / kHousekeepingRateHz));
    Ticks when = m.now() + std::max<Ticks>(gap, 1);
    if (when >= end)
        return;
    m.events().schedule(when, [this, end] {
        stack_.postL1Housekeeping(kHousekeepingCost);
        scheduleHousekeeping(end);
    }, "l1-housekeeping");
}

std::uint64_t
MemcachedServer::serveUntil(Ticks end)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();
    net_.setRxHandler([this](NetPacket pkt) { receive(pkt); });
    scheduleHousekeeping(end);

    std::uint64_t served = 0;
    auto serve_one = [&] {
        serveOne();
        ++served;
    };
    while (machine.now() < end) {
        if (inbox_.empty()) {
            GuestOs::idleWait(api, [&] {
                return !inbox_.empty() || machine.now() >= end;
            });
            continue;
        }
        serve_one();
    }
    // Drain the backlog and keep serving stragglers through a grace
    // period so late in-flight requests still get responses (requests
    // dropped under overload never complete, so the wait is bounded).
    while (!inbox_.empty())
        serve_one();
    const Ticks grace = machine.now() + msec(5);
    GuestOs::idleWait(api, [&] {
        while (!inbox_.empty())
            serve_one();
        return machine.now() >= grace;
    });
    net_.setRxHandler([](NetPacket) {});
    return served;
}

} // namespace svtsim
