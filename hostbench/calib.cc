#include "calib.h"

#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "spans.h"

namespace hostbench {

namespace {

std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Calibration
calibrateOne()
{
    // Sized to stay in a core's private caches: on this kind of host the
    // simulator slows mostly with contention for the core (an SMT
    // sibling's load), and a cache-resident loop tracks that best.
    constexpr std::size_t tableWords = std::size_t{1} << 15; // 256 KiB
    constexpr std::uint64_t keyMask = 0x1ff;
    constexpr int iterations = 500000;

    // Built once and kept: the loop then times user-space work only,
    // not page faults.
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(tableWords);
        for (std::size_t i = 0; i < tableWords; ++i)
            t[i] = mix(i);
        return t;
    }();

    const auto start = Clock::now();

    std::map<std::uint64_t, std::unique_ptr<std::uint64_t>> live;
    const std::function<std::uint64_t(std::uint64_t)> steps[] = {
        [](std::uint64_t x) { return mix(x + 1); },
        [](std::uint64_t x) { return x * 0x9e3779b97f4a7c15ULL; },
        [](std::uint64_t x) { return (x << 7) ^ (x >> 3); },
    };

    std::uint64_t x = 1;
    for (int i = 0; i < iterations; ++i) {
        x = steps[x % 3](x);
        x ^= table[x & (tableWords - 1)];
        const std::uint64_t key = x & keyMask;
        auto it = live.find(key);
        if (it == live.end())
            live.emplace(key, std::make_unique<std::uint64_t>(x));
        else {
            x += *it->second;
            live.erase(it);
        }
    }
    Calibration c;
    c.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    c.checksum = x + live.size();
    return c;
}

} // namespace

Calibration
calibrate(int threads)
{
    std::vector<Calibration> runs(static_cast<std::size_t>(threads));
    {
        std::vector<std::jthread> pool;
        for (std::size_t i = 1; i < runs.size(); ++i)
            pool.emplace_back([&runs, i] { runs[i] = calibrateOne(); });
        runs[0] = calibrateOne();
    }
    Calibration mean;
    for (const Calibration &c : runs) {
        mean.seconds += c.seconds / static_cast<double>(runs.size());
        mean.checksum ^= c.checksum;
    }
    return mean;
}

} // namespace hostbench
