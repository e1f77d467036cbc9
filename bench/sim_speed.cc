/**
 * @file
 * Simulator-speed bench: wall-clock throughput of the discrete-event
 * hot path (events/sec and simulated-us per wall-second), measured for
 * the timing-wheel EventQueue and for the retained pre-wheel
 * ReferenceEventQueue on the same workloads, so the wheel's speedup is
 * part of the committed record (BENCH_SPEED.json) and CI can catch
 * regressions.
 *
 * Workloads:
 *  - schedule_heavy: bursts of short timers, all fired — the pure
 *    schedule->fire cycle that dominates nested-trap simulation.
 *  - cancel_heavy:   watchdog churn — most events are descheduled
 *    before firing (re-armed timeouts, TSC deadlines).
 *  - mixed_fig7:     the fig7-style I/O mix — per-round completion +
 *    IPI timers at ns scale, a cancelled timeout, occasional slow
 *    timers, randomized (seeded) deltas.
 *
 * Unlike the sweep benches this measures host wall clock, so the JSON
 * is not byte-deterministic; the workload event counts and simulated
 * tick totals are, and CI compares the machine-independent
 * wheel/reference speedup ratio rather than raw rates.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "oracle/reference_event_queue.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/ticks.h"
#include "system/bench_harness.h"

using namespace svtsim;

namespace {

/** One measured run of a workload against one queue implementation. */
struct SpeedResult
{
    std::uint64_t fired = 0;   ///< Events that executed.
    std::uint64_t ops = 0;     ///< schedules + cancels + fires.
    Ticks simTicks = 0;        ///< Simulated time covered.
    double wallSec = 0.0;      ///< Best-of-N wall time.

    double eventsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(fired) / wallSec : 0;
    }
    double opsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(ops) / wallSec : 0;
    }
    double simUsPerWallSec() const
    {
        return wallSec > 0 ? toUsec(simTicks) / wallSec : 0;
    }
};

double
elapsedSec(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * A self-rescheduling periodic timer: what every device completion
 * poller, TSC deadline and per-connection timeout in the simulator
 * looks like. The 24-byte capture is representative of the repo's
 * real closures (up to 40 bytes), which the old std::function-based
 * queue heap-allocated on every schedule.
 */
template <class Q>
struct PeriodicTimer
{
    Q *q;
    std::uint64_t *fired;
    Ticks period;

    void
    operator()() const
    {
        ++*fired;
        q->scheduleIn(period, *this);
    }
};

/**
 * Schedule-heavy: a large population of concurrently outstanding
 * periodic timers (many guests x devices x timeouts), every event
 * fired and rescheduled. This is the pure schedule->fire cycle at the
 * fig7 operating point, where the wheel's O(1) schedule/fire beats
 * the heap's O(log n) sift plus per-event record allocation.
 */
template <class Q>
SpeedResult
runScheduleHeavy(std::uint64_t fireTarget)
{
    constexpr int population = 32768;
    Q q;
    SpeedResult r;
    std::uint64_t fired = 0;
    // Periods from 1us to ~33us: a realistic spread of deadlines that
    // keeps all wheel levels 0-3 and the heap's full depth exercised.
    for (int i = 0; i < population; ++i) {
        const Ticks period = usec(1) + nsec(i);
        q.scheduleIn(period,
                     PeriodicTimer<Q>{&q, &fired, period});
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (fired < fireTarget)
        q.advanceBy(usec(64));
    r.wallSec = elapsedSec(t0);
    r.fired = fired;
    r.ops = 2 * fired; // every fire is paired with a reschedule
    r.simTicks = q.now();
    return r;
}

/**
 * Cancel-heavy: a large ring of outstanding watchdogs, each cancelled
 * and re-armed before its deadline (the I/O timeout pattern: armed per
 * request, cancelled on completion). Almost no event ever fires; the
 * old queue accumulated every cancelled entry as lazy-deletion heap
 * debris, the wheel unlinks eagerly.
 */
template <class Q>
SpeedResult
runCancelHeavy(std::uint64_t iters)
{
    constexpr std::size_t ring = 16384;
    Q q;
    SpeedResult r;
    std::uint64_t fired = 0;
    std::vector<std::uint64_t> watchdogs(ring);
    for (std::size_t i = 0; i < ring; ++i)
        watchdogs[i] = q.scheduleIn(msec(10) + usec(i), [] {});
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        // The ring wraps every ring * 200ns = 3.3ms of simulated time,
        // well inside the 10ms deadline: every watchdog is cancelled
        // before it can fire.
        std::uint64_t &slot = watchdogs[i % ring];
        q.deschedule(slot);
        slot = q.scheduleIn(msec(10), [] {});
        q.scheduleIn(nsec(100), [&fired] { ++fired; });
        q.advanceBy(nsec(200));
        r.ops += 4;
    }
    r.wallSec = elapsedSec(t0);
    r.fired = fired;
    r.ops += fired;
    r.simTicks = q.now();
    return r;
}

/**
 * Fig7-style I/O mix: per round a device-completion timer and an IPI
 * at randomized ns-scale deltas, a timeout armed and cancelled, and an
 * occasional slow (ms-scale) timer that exercises the upper wheel
 * levels. The delta sequence is seeded, so both implementations replay
 * the identical workload.
 */
template <class Q>
SpeedResult
runMixedFig7(std::uint64_t iters, std::uint64_t seed)
{
    constexpr int connections = 4096;
    Q q;
    Rng rng(seed);
    SpeedResult r;
    std::uint64_t fired = 0;
    // Background population: per-connection keepalive timers that
    // re-arm themselves on every fire (the memcached fig8 pattern).
    for (int i = 0; i < connections; ++i) {
        const Ticks period = usec(50) + nsec(16 * i);
        q.scheduleIn(period,
                     PeriodicTimer<Q>{&q, &fired, period});
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        q.scheduleIn(nsec(200 + static_cast<Ticks>(rng.below(800))),
                     [&fired] { ++fired; });
        q.scheduleIn(nsec(100 + static_cast<Ticks>(rng.below(300))),
                     [&fired] { ++fired; });
        const std::uint64_t timeout = q.scheduleIn(usec(20), [] {});
        r.ops += 3;
        if (rng.chance(0.05)) {
            q.scheduleIn(msec(1) +
                             static_cast<Ticks>(rng.below(1u << 20)),
                         [&fired] { ++fired; });
            ++r.ops;
        }
        q.advanceBy(nsec(500 + static_cast<Ticks>(rng.below(500))));
        q.deschedule(timeout);
        ++r.ops;
    }
    q.advanceBy(msec(5));
    r.wallSec = elapsedSec(t0);
    r.fired = fired;
    r.ops += fired;
    r.simTicks = q.now();
    return r;
}

/** Best-of-N wrapper: keeps the run with the smallest wall time. */
template <class Fn>
SpeedResult
bestOf(int reps, Fn fn)
{
    SpeedResult best = fn();
    for (int i = 1; i < reps; ++i) {
        SpeedResult r = fn();
        if (r.wallSec < best.wallSec)
            best = r;
    }
    return best;
}

struct WorkloadRow
{
    std::string name;
    SpeedResult wheel;
    SpeedResult reference;

    double speedup() const
    {
        return reference.eventsPerSec() > 0
                   ? wheel.eventsPerSec() / reference.eventsPerSec()
                   : 0;
    }
};

void
writeResult(std::ostream &os, const char *key, const SpeedResult &r,
            const char *trail)
{
    os << "    \"" << key << "\": {"
       << "\"events\": " << r.fired << ", \"ops\": " << r.ops
       << ", \"sim_ticks\": " << r.simTicks
       << ", \"wall_s\": " << r.wallSec
       << ", \"events_per_sec\": " << r.eventsPerSec()
       << ", \"ops_per_sec\": " << r.opsPerSec()
       << ", \"sim_us_per_wall_s\": " << r.simUsPerWallSec() << "}"
       << trail << "\n";
}

void
writeJson(std::ostream &os, const std::vector<WorkloadRow> &rows,
          bool quick, std::uint64_t seed)
{
    os << "{\n";
    os << "  \"bench\": \"sim_speed\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const WorkloadRow &row = rows[i];
        os << "  {\n";
        os << "    \"name\": \"" << row.name << "\",\n";
        writeResult(os, "wheel", row.wheel, ",");
        writeResult(os, "reference", row.reference, ",");
        os << "    \"speedup_events_per_sec\": " << row.speedup()
           << "\n";
        os << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

int
runSpeedBench(int argc, char **argv, const BenchOptions &options)
{
    std::string outPath = "BENCH_SPEED.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--out=", 6) == 0) {
            outPath = arg + 6;
        } else if (std::strcmp(arg, "--quick") == 0) {
            quick = true;
        } else {
            std::cerr << "sim_speed: unknown argument '" << arg
                      << "'\n"
                      << "usage: sim_speed [--out=FILE] [--quick]\n";
            return 2;
        }
    }

    // Quick mode keeps sanitizer CI runs fast; the full mode sizes
    // give stable rates on an unloaded machine.
    const int reps = quick ? 1 : 3;
    const std::uint64_t scheduleIters = quick ? 200000 : 3200000;
    const std::uint64_t cancelIters = quick ? 20000 : 400000;
    const std::uint64_t mixedIters = quick ? 20000 : 300000;
    const std::uint64_t seed = options.seed;

    std::vector<WorkloadRow> rows;
    rows.push_back(
        {"schedule_heavy",
         bestOf(reps,
                [&] { return runScheduleHeavy<EventQueue>(
                          scheduleIters); }),
         bestOf(reps, [&] {
             return runScheduleHeavy<ReferenceEventQueue>(
                 scheduleIters);
         })});
    rows.push_back(
        {"cancel_heavy",
         bestOf(reps,
                [&] { return runCancelHeavy<EventQueue>(cancelIters); }),
         bestOf(reps, [&] {
             return runCancelHeavy<ReferenceEventQueue>(cancelIters);
         })});
    rows.push_back(
        {"mixed_fig7",
         bestOf(reps,
                [&] {
                    return runMixedFig7<EventQueue>(mixedIters, seed);
                }),
         bestOf(reps, [&] {
             return runMixedFig7<ReferenceEventQueue>(mixedIters,
                                                      seed);
         })});

    // Sanity: both implementations must have processed the identical
    // deterministic workload.
    for (const WorkloadRow &row : rows) {
        if (row.wheel.fired != row.reference.fired ||
            row.wheel.simTicks != row.reference.simTicks) {
            std::cerr << "sim_speed: wheel/reference divergence in "
                      << row.name << " (fired " << row.wheel.fired
                      << " vs " << row.reference.fired << ")\n";
            return 1;
        }
    }

    std::ostream *os = &std::cout;
    std::ofstream file;
    if (outPath != "-") {
        file.open(outPath);
        if (!file) {
            std::cerr << "sim_speed: cannot open '" << outPath
                      << "'\n";
            return 1;
        }
        os = &file;
    }
    writeJson(*os, rows, quick, seed);

    for (const WorkloadRow &row : rows) {
        std::printf("%-16s wheel %12.0f ev/s   reference %12.0f ev/s"
                    "   speedup %5.2fx\n",
                    row.name.c_str(), row.wheel.eventsPerSec(),
                    row.reference.eventsPerSec(), row.speedup());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchHarness bench("sim_speed",
                       "wall-clock event-queue throughput: timing "
                       "wheel vs reference heap (events/sec, "
                       "simulated-us per wall-second)");
    bench.onCustomMain(runSpeedBench);
    return bench.main(argc, argv);
}
