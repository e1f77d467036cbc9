#include "workloads/memcached.h"

#include <algorithm>

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

} // namespace svtsim
