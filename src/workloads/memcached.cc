#include "workloads/memcached.h"

#include <algorithm>
#include <unordered_map>

#include "workloads/guest_os.h"

namespace svtsim {

std::uint32_t
EtcWorkload::sampleValueSize(Rng &rng) const
{
    double v = rng.generalizedPareto(valueLocation, valueScale,
                                     valueShape);
    auto bytes = static_cast<std::uint32_t>(std::max(1.0, v));
    return std::min(bytes, valueCap);
}

std::uint32_t
EtcWorkload::sampleKeySize(Rng &rng) const
{
    return keyMin + static_cast<std::uint32_t>(
                        rng.below(keyMax - keyMin + 1));
}

NetPacket
EtcWorkload::sampleRequest(Rng &rng, std::uint64_t id) const
{
    const bool get = isGet(rng);
    const std::uint32_t vsize = sampleValueSize(rng);
    const std::uint32_t req_bytes =
        sampleKeySize(rng) + (get ? 24 : 24 + vsize);
    return NetPacket{
        id, req_bytes,
        (static_cast<std::uint64_t>(vsize) << 1) | (get ? 1 : 0)};
}

MemcachedService::MemcachedService(VirtStack &stack,
                                   VirtioNetStack &net)
    : stack_(stack), net_(net)
{
}

void
MemcachedService::receive(const NetPacket &pkt)
{
    inbox_.push_back(Request{
        pkt.id, (pkt.payload & 1) != 0,
        static_cast<std::uint32_t>(pkt.payload >> 1)});
}

void
MemcachedService::serveOne()
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

std::uint64_t
MemcachedService::serveUntil(Ticks end,
                             const std::function<bool()> &drained)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();
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
    Ticks grace = machine.now() + msec(5);
    GuestOs::idleWait(api, [&] {
        while (!inbox_.empty())
            serve_one();
        return drained() || machine.now() >= grace;
    });
    return served;
}

MemcachedBench::MemcachedBench(VirtStack &stack, VirtioNetStack &net,
                               NetPort &peer, std::uint64_t seed,
                               double l1_housekeeping_rate_hz,
                               Ticks l1_housekeeping_cost,
                               double l1_housekeeping_per_request)
    : stack_(stack), net_(net), peer_(peer), service_(stack, net),
      rng_(seed),
      housekeepingRate_(l1_housekeeping_rate_hz),
      housekeepingCost_(l1_housekeeping_cost),
      housekeepingPerRequest_(l1_housekeeping_per_request)
{
}

void
MemcachedBench::scheduleHousekeeping(Ticks end)
{
    if (housekeepingRate_ <= 0)
        return;
    Machine &m = stack_.machine();
    Ticks gap = static_cast<Ticks>(
        rng_.exponential(1e12 / housekeepingRate_));
    Ticks when = m.now() + std::max<Ticks>(gap, 1);
    if (when >= end)
        return;
    m.events().schedule(when, [this, end] {
        stack_.postL1Housekeeping(housekeepingCost_);
        scheduleHousekeeping(end);
    }, "l1-housekeeping");
}

MemcachedPoint
MemcachedBench::runLoad(double qps, Ticks duration)
{
    Machine &machine = stack_.machine();

    // Client-side bookkeeping (lives on the peer machine).
    std::unordered_map<std::uint64_t, Ticks> sent;
    Percentiles lat;
    std::uint64_t completed = 0;

    Ticks t0 = machine.now();
    Ticks end = t0 + duration;

    // mutilate measures the full round trip of each request at the
    // client.
    peer_.setReceiveHandler([&](NetPacket pkt) {
        auto it = sent.find(pkt.id);
        if (it != sent.end()) {
            lat.add(toUsec(machine.now() - it->second));
            sent.erase(it);
            ++completed;
        }
    });

    // Server side: requests land in the connection inbox under the
    // receive interrupt.
    net_.setRxHandler([this](NetPacket pkt) { service_.receive(pkt); });

    // Open-loop Poisson arrival process at the client.
    std::function<void()> arm = [&] {
        Ticks gap = static_cast<Ticks>(rng_.exponential(1e12 / qps));
        Ticks when = machine.now() + std::max<Ticks>(gap, 1);
        if (when >= end)
            return;
        machine.events().schedule(when, [&] {
            NetPacket req = etc_.sampleRequest(rng_, nextId_++);
            sent[req.id] = machine.now();
            peer_.send(req);
            // Load-proportional L1-kernel work triggered by serving
            // this request (vhost bookkeeping on the paired vCPU).
            double events = housekeepingPerRequest_;
            while (events >= 1.0 || rng_.chance(events)) {
                stack_.postL1Housekeeping(housekeepingCost_);
                events -= 1.0;
                if (events <= 0)
                    break;
            }
            arm();
        }, "mutilate-arrival");
    };
    arm();
    scheduleHousekeeping(end);

    // The memcached serving loop in the guest. Its grace period also
    // waits for in-flight responses, so no event references this
    // invocation's state after it returns.
    service_.serveUntil(end, [&] { return sent.empty(); });
    peer_.setReceiveHandler([](NetPacket) {});
    net_.setRxHandler([](NetPacket) {});

    MemcachedPoint point;
    point.offeredQps = qps;
    point.completed = completed;
    point.achievedQps =
        static_cast<double>(completed) / toSec(machine.now() - t0);
    if (lat.count()) {
        point.avgUsec = lat.mean();
        point.p99Usec = lat.p99();
    }
    return point;
}

} // namespace svtsim
