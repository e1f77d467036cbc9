/**
 * @file
 * Simulator-speed bench: wall-clock throughput of the discrete-event
 * hot path (events/sec and simulated-us per wall-second), measured for
 * the EventQueue and for the retained pre-wheel ReferenceEventQueue on
 * the same workloads, so the queue's speedup is part of the committed
 * record (BENCH_SPEED.json) and CI can catch regressions.
 *
 * The EventQueue keeps at most EventQueue::listLimit (32) pending
 * events on a sorted list and more on its timing wheel. The paper
 * benches' queues hold at most 17 pending events per machine (fig7_io:
 * 120), so the list is the common case; the first three workloads keep
 * thousands pending to exercise the wheel side, and consume_heavy
 * (8 timers) exercises the list side. Each row records its largest
 * pending count as max_pending, from one untimed extra run after all
 * timed runs.
 *
 * Workloads:
 *  - schedule_heavy: 32768 periodic timers, all fired and re-armed —
 *    the wheel's schedule->fire cycle.
 *  - cancel_heavy:   watchdog churn over 16384 armed timeouts — most
 *    events are descheduled before firing (re-armed timeouts, TSC
 *    deadlines).
 *  - mixed_fig7:     the fig7-style I/O mix above 4096 keepalive
 *    timers — per-round completion + IPI timers at ns scale, a
 *    cancelled timeout, occasional slow timers, randomized (seeded)
 *    deltas.
 *  - consume_heavy:  the trap-round shape — long runs of tiny
 *    advanceBy() charges between 8 periodic timers, where most
 *    advances cross no pending event.
 *
 * Layers: the host cost of one op of each layer of the nested trap
 * path (a VMCS field write plus read, one context's register spill and
 * reload, a nested cpuid round per mode, a virtio-blk request round),
 * published in the record's "layers" array and on stdout, not gated.
 *
 * Unlike the sweep benches this measures host wall clock, so the JSON
 * is not byte-deterministic; the workload event counts and simulated
 * tick totals are, and CI compares the machine-independent
 * queue/reference speedup ratio rather than raw rates.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/smt_core.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "oracle/reference_event_queue.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/ticks.h"
#include "system/bench_harness.h"
#include "system/nested_system.h"
#include "virt/vmcs.h"

using namespace svtsim;

namespace {

/** One measured run of a workload against one queue implementation. */
struct SpeedResult
{
    std::uint64_t fired = 0;   ///< Events that executed.
    std::uint64_t ops = 0;     ///< schedules + cancels + fires.
    Ticks simTicks = 0;        ///< Simulated time covered.
    double wallSec = 0.0;      ///< Best-of-N wall time.
    std::size_t maxPending = 0; ///< Largest pending count (PendingProbe).

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
    double nsPerOp() const
    {
        return ops > 0 ? wallSec * 1e9 / static_cast<double>(ops) : 0;
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
 * An EventQueue that remembers its largest pending count. Every
 * workload schedules through scheduleIn(), and the count only rises
 * there, so one untimed run on this type measures a row's max_pending
 * outside the timed loops.
 */
struct PendingProbe : EventQueue
{
    std::size_t peak = 0;

    EventId
    scheduleIn(Ticks delta, EventClosure fn)
    {
        const EventId id = EventQueue::scheduleIn(delta, std::move(fn));
        peak = std::max(peak, size());
        return id;
    }
};

template <class Q>
std::size_t
peakPending(const Q &)
{
    return 0;
}

std::size_t
peakPending(const PendingProbe &q)
{
    return q.peak;
}

/**
 * Schedule-heavy: a large population of concurrently outstanding
 * periodic timers, every event fired and rescheduled. Far above
 * listLimit, this is the wheel side's schedule->fire cycle, where its
 * O(1) schedule/fire beats the heap's O(log n) sift plus per-event
 * record allocation. The paper benches never hold this many.
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
    r.maxPending = peakPending(q);
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
    r.maxPending = peakPending(q);
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
    r.maxPending = peakPending(q);
    return r;
}

/**
 * Consume-heavy: trap rounds of 200 advanceBy() charges of 20-200 ns
 * each (the Machine::consume calls of one replayed round), against
 * eight periodic timers that together fire about once per 5 us, so
 * about 45 charges pass between consecutive events. The charge
 * sequence is seeded and drawn before the clock starts, so the timed
 * loop is queue work only.
 */
template <class Q>
SpeedResult
runConsumeHeavy(std::uint64_t rounds, std::uint64_t seed)
{
    constexpr int timers = 8;
    constexpr int chargesPerRound = 200;
    Q q;
    Rng rng(seed);
    SpeedResult r;
    std::uint64_t fired = 0;
    for (int i = 0; i < timers; ++i) {
        const Ticks period = usec(40) + nsec(i);
        q.scheduleIn(period, PeriodicTimer<Q>{&q, &fired, period});
    }
    std::vector<Ticks> charges(4096);
    for (Ticks &c : charges)
        c = nsec(20 + static_cast<Ticks>(rng.below(181)));
    std::size_t next = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < rounds; ++i) {
        for (int k = 0; k < chargesPerRound; ++k) {
            q.advanceBy(charges[next]);
            next = (next + 1) % charges.size();
        }
    }
    r.wallSec = elapsedSec(t0);
    r.fired = fired;
    r.ops = rounds * chargesPerRound + 2 * fired;
    r.simTicks = q.now();
    r.maxPending = peakPending(q);
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

/**
 * Time @p ops calls of @p op, one op of a layer each. The empty asm
 * keeps each op's result and memory writes, so the compiler cannot
 * fold the loop away.
 */
template <class Op>
SpeedResult
timeLayer(std::uint64_t ops, Op op)
{
    SpeedResult r;
    r.ops = ops;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const auto v = op();
        asm volatile("" : : "m"(v) : "memory");
    }
    r.wallSec = elapsedSec(t0);
    return r;
}

SpeedResult
runVmcsAccess(std::uint64_t ops)
{
    Vmcs vmcs("bench");
    std::uint64_t v = 0;
    return timeLayer(ops, [&] {
        vmcs.write(VmcsField::GuestRip, v);
        return v = vmcs.read(VmcsField::GuestRip) + 1;
    });
}

/** The register-file layer of a trap round: spill a context's GPRs
 *  into a vCPU-struct image and reload them. */
SpeedResult
runGprTransfer(std::uint64_t ops)
{
    EventQueue eq;
    CostModel costs;
    SmtCore core(eq, costs, 0, 2, 0);
    HwContext &ctx = core.context(1);
    return timeLayer(ops, [&] {
        GprValues spill = ctx.readGprs();
        ++spill[0];
        ctx.writeGprs(spill);
        return spill[0];
    });
}

SpeedResult
runCpuidRound(VirtMode mode, std::uint64_t ops)
{
    NestedSystem sys(mode);
    sys.api().cpuid(1);
    return timeLayer(ops, [&] { return sys.api().cpuid(1); });
}

/** One nested virtio-blk request, submitted and retired by halt(). */
SpeedResult
runDiskRound(std::uint64_t ops)
{
    NestedSystem sys(VirtMode::Nested);
    RamDisk disk(sys.machine(), "bench");
    VirtioBlkStack blk(sys.stack(), disk);
    std::uint64_t done = 0;
    blk.setCompletionHandler([&](std::uint64_t id) { done = id; });
    std::uint64_t id = 0;
    return timeLayer(ops, [&] {
        blk.submit(++id, 0, 512, false);
        while (done != id)
            sys.api().halt();
        return id;
    });
}

using LayerRow = std::pair<std::string, SpeedResult>;

struct WorkloadRow
{
    std::string name;
    /** The EventQueue's run ("wheel" in the committed record). */
    SpeedResult wheel;
    SpeedResult reference;
    std::size_t maxPending = 0;

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
          const std::vector<LayerRow> &layers, bool quick,
          std::uint64_t seed)
{
    os << "{\n";
    os << "  \"bench\": \"sim_speed\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"list_limit\": " << EventQueue::listLimit << ",\n";
    os << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const WorkloadRow &row = rows[i];
        os << "  {\n";
        os << "    \"name\": \"" << row.name << "\",\n";
        os << "    \"max_pending\": " << row.maxPending << ",\n";
        writeResult(os, "wheel", row.wheel, ",");
        writeResult(os, "reference", row.reference, ",");
        os << "    \"speedup_events_per_sec\": " << row.speedup()
           << "\n";
        os << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"layers\": [\n";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto &[name, r] = layers[i];
        os << "    {\"name\": \"" << name << "\", \"ops\": " << r.ops
           << ", \"wall_s\": " << r.wallSec
           << ", \"ns_per_op\": " << r.nsPerOp() << "}"
           << (i + 1 < layers.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

int
runSpeedBench(const std::string &outPath, bool quick, std::uint64_t seed)
{
    // Quick mode keeps sanitizer CI runs fast; the full mode sizes
    // give stable rates on an unloaded machine.
    const int reps = quick ? 1 : 3;
    const std::uint64_t scheduleIters = quick ? 200000 : 3200000;
    const std::uint64_t cancelIters = quick ? 20000 : 400000;
    const std::uint64_t mixedIters = quick ? 20000 : 300000;
    const std::uint64_t consumeRounds = quick ? 10000 : 200000;
    const std::uint64_t accessOps = quick ? 1000000 : 20000000;
    const std::uint64_t roundOps = quick ? 2000 : 50000;

    // Each workload runs on the queue and on the reference heap; the
    // tag names the queue type to the workload's template. Its
    // max_pending comes from one untimed run on PendingProbe, made
    // after every timed run so the timed runs follow each other as
    // they always have.
    std::vector<std::function<std::size_t()>> probes;
    const auto row = [&](std::string name, auto run) {
        using Wheel = std::type_identity<EventQueue>;
        using Heap = std::type_identity<ReferenceEventQueue>;
        probes.push_back([run] {
            return run(std::type_identity<PendingProbe>{}).maxPending;
        });
        return WorkloadRow{std::move(name),
                           bestOf(reps, [&] { return run(Wheel{}); }),
                           bestOf(reps, [&] { return run(Heap{}); })};
    };
    std::vector<WorkloadRow> rows = {
        row("schedule_heavy", [&]<class Q>(std::type_identity<Q>) {
            return runScheduleHeavy<Q>(scheduleIters);
        }),
        row("cancel_heavy", [&]<class Q>(std::type_identity<Q>) {
            return runCancelHeavy<Q>(cancelIters);
        }),
        row("mixed_fig7", [&]<class Q>(std::type_identity<Q>) {
            return runMixedFig7<Q>(mixedIters, seed);
        }),
        row("consume_heavy", [&]<class Q>(std::type_identity<Q>) {
            return runConsumeHeavy<Q>(consumeRounds, seed);
        }),
    };
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].maxPending = probes[i]();

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

    const auto cpuid = [&](VirtMode mode) {
        return bestOf(reps, [&] { return runCpuidRound(mode, roundOps); });
    };
    // A braced list runs its elements in order, one layer at a time.
    const std::vector<LayerRow> layers = {
        {"vmcs_access",
         bestOf(reps, [&] { return runVmcsAccess(accessOps); })},
        {"gpr_transfer",
         bestOf(reps, [&] { return runGprTransfer(accessOps); })},
        {"cpuid_round.nested", cpuid(VirtMode::Nested)},
        {"cpuid_round.sw-svt", cpuid(VirtMode::SwSvt)},
        {"cpuid_round.hw-svt", cpuid(VirtMode::HwSvt)},
        {"disk_round", bestOf(reps, [&] { return runDiskRound(roundOps); })},
    };

    if (!writeOutput("sim_speed", outPath, [&](std::ostream &os) {
            writeJson(os, rows, layers, quick, seed);
        }))
        return 1;

    for (const WorkloadRow &row : rows) {
        std::printf("%-16s wheel %12.0f ev/s   reference %12.0f ev/s"
                    "   speedup %5.2fx   max pending %zu\n",
                    row.name.c_str(), row.wheel.eventsPerSec(),
                    row.reference.eventsPerSec(), row.speedup(),
                    row.maxPending);
    }
    for (const auto &[name, r] : layers) {
        std::printf("%-20s %10llu ops %9.4f s %9.1f ns/op\n",
                    name.c_str(), static_cast<unsigned long long>(r.ops),
                    r.wallSec, r.nsPerOp());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchHarness bench("sim_speed",
                       "wall-clock event-queue throughput (timing "
                       "wheel vs reference heap) and host ns per op "
                       "of each trap-path layer");
    std::string outPath = "BENCH_SPEED.json";
    bool quick = false;
    bench.flag("--out=FILE", outPath,
               "write the record to FILE (\"-\" = stdout; default "
               "BENCH_SPEED.json)");
    bench.flag("--quick", quick, "CI sizes: one repetition, fewer events");
    bench.onCustomMain([&](const BenchOptions &options) {
        return runSpeedBench(outPath, quick, options.seed);
    });
    return bench.main(argc, argv);
}
