#include "workloads.h"

#include <sys/resource.h>

#include <cstring>
#include <functional>
#include <memory>

#include "io/cross_link.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "sim/trace.h"
#include "system/cluster_spec.h"
#include "system/fleet/fleet_scheduler.h"
#include "system/nested_system.h"
#include "system/sweep.h"
#include "workloads/remote_peer.h"

namespace hostbench {

void
Fingerprint::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Fingerprint::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Fingerprint::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

namespace {

using namespace svtsim;

// ------------------------------------------------------------ helpers

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User and sys CPU seconds of @p who (RUSAGE_SELF / RUSAGE_THREAD). */
struct CpuTimes
{
    double user = 0;
    double sys = 0;

    double total() const { return user + sys; }
};

CpuTimes
cpuTimes(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return CpuTimes{sec(ru.ru_utime), sec(ru.ru_stime)};
}

/** Deterministic input stream (splitmix64): the benchmark's inputs
 *  depend only on the seed, never on the simulator's own RNG. */
class InputGen
{
  public:
    explicit InputGen(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

std::uint64_t
counter(const Machine &m, const std::string &name)
{
    const MetricsRegistry &reg = m.metrics();
    return reg.has(name) ? reg.counterValue(name) : 0;
}

/** Sum of the counters named <prefix>...<suffix>. */
std::uint64_t
counterSum(const Machine &m, const std::string &prefix,
           const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : m.metrics().counterValues()) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    }
    return sum;
}

/** The PMU counters the per-layer metrics are built from. */
const char *const pmuCounters[] = {
    "l0.reflect",          "l0.transform_02_to_12",
    "l0.transform_12_to_02", "vmx.entry",
    "vmx.exit",            "vmx.shadow_read",
    "vmx.shadow_write",    "svt.switch",
    "irq.raised",          "irq.posted",
    "irq.delivered.l0",    "irq.delivered.l1",
    "irq.delivered.l2",    "l2.exit.elided.posted",
    "l2.exit.elided.eoi",
};

/** Machine part of a fingerprint: clock, executed events, PMU. */
void
addMachine(Fingerprint &fp, Machine &m)
{
    fp.add(m.now());
    fp.add(m.events().executedCount());
    for (const char *name : pmuCounters)
        fp.add(counter(m, name));
    fp.add(counterSum(m, "ring.", ".posted"));
    fp.add(counterSum(m, "l2.blk.q", ".kicks"));
}

/** Snapshot of the counters a workload turns into per-op ratios. */
struct Pmu
{
    std::map<std::string, std::uint64_t> c;
    std::uint64_t events = 0;

    static Pmu of(Machine &m)
    {
        Pmu p;
        for (const char *name : pmuCounters)
            p.c[name] = counter(m, name);
        p.c["ring.posted"] = counterSum(m, "ring.", ".posted");
        p.c["blk.kicks"] = counterSum(m, "l2.blk.q", ".kicks");
        p.events = m.events().executedCount();
        return p;
    }

    /** this - @p before, accumulated into @p sum. */
    void addDelta(const Pmu &before, Pmu &sum) const
    {
        for (const auto &[name, v] : c)
            sum.c[name] += v - before.c.at(name);
        sum.events += events - before.events;
    }

    double get(const std::string &name) const
    {
        auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Host time per unit, for the traced rounds' per-layer times. */
void
perUnitTime(Round &r, const char *name, double scale, const char *unit,
            double units)
{
    if (units > 0)
        r.times[name] = Metric{r.wallS * scale / units, unit};
}

/** p50/p99 of the host durations of spans @p span. */
void
percentiles(const Tracer &tracer, const std::string &span,
            const std::string &p50, const std::string &p99,
            MetricMap &out)
{
    const std::vector<double> &v = tracer.samples(span);
    if (v.empty())
        return;
    out[p50] = Metric{quantile(v, 0.50), "ns"};
    out[p99] = Metric{quantile(v, 0.99), "ns"};
}

// -------------------------------------------------------- trap_rounds
//
// A closed loop of guest sensitive operations on one NestedSystem per
// nested mode. Each operation's result is checked against a model of
// the L1 emulation (MSR store, port register, hypercall function), and
// the three modes must return identical guest-visible values.

const char *const trapModeNames[] = {"nested", "sw-svt", "hw-svt"};
const char *const trapSpanNames[] = {"hv.trap.nested", "hv.trap.sw-svt",
                                     "hv.trap.hw-svt"};
const VirtMode trapModes[] = {VirtMode::Nested, VirtMode::SwSvt,
                              VirtMode::HwSvt};

constexpr std::uint64_t trapHypercall = 0x4b42;
constexpr std::uint16_t trapPort = 0x510;
constexpr std::uint32_t trapMsrBase = 0x40000080;
constexpr int trapMsrCount = 8;

enum class TrapKind : std::uint8_t
{
    Cpuid,
    Rdmsr,
    Wrmsr,
    Vmcall,
    IoOut,
    IoIn,
};

struct TrapOp
{
    TrapKind kind;
    std::uint32_t index;
    std::uint64_t a;
    std::uint64_t b;
};

std::uint64_t
hypercallResult(std::uint64_t a0, std::uint64_t a1)
{
    return (a0 * 0x9e3779b97f4a7c15ULL) ^ (a1 + 0x632be59bd9b4e019ULL);
}

std::vector<TrapOp>
trapInputs(std::uint64_t seed, std::size_t n)
{
    static const std::uint32_t leaves[] = {0x0,        0x1,        0x4,
                                           0x7,        0xb,        0xd,
                                           0x80000000, 0x80000001,
                                           0x80000008};
    InputGen gen(seed ^ 0x7472617000000000ULL);
    std::vector<TrapOp> ops(n);
    for (TrapOp &op : ops) {
        const std::uint64_t pick = gen.below(100);
        op.index = static_cast<std::uint32_t>(gen.below(trapMsrCount));
        op.a = gen.next();
        op.b = gen.next();
        if (pick < 30) {
            op.kind = TrapKind::Cpuid;
            op.index = leaves[gen.below(std::size(leaves))];
        } else if (pick < 45) {
            op.kind = TrapKind::Rdmsr;
        } else if (pick < 60) {
            op.kind = TrapKind::Wrmsr;
        } else if (pick < 80) {
            op.kind = TrapKind::Vmcall;
        } else if (pick < 90) {
            op.kind = TrapKind::IoOut;
            op.a &= 0xffffffffULL;
        } else {
            op.kind = TrapKind::IoIn;
        }
    }
    return ops;
}

/** One mode's system plus the model of what L1 should return. */
struct TrapSystem
{
    explicit TrapSystem(VirtMode mode, std::uint64_t seed)
        : sys(mode, StackConfig{}, seed)
    {
        GuestHypervisor &l1 = sys.stack().l1Hv();
        l1.registerHypercall(trapHypercall, hypercallResult);
        l1.registerIoPort(trapPort, [this](std::uint16_t,
                                           std::uint64_t value,
                                           bool is_write) {
            if (is_write)
                portReg = value;
            return portReg;
        });
    }

    /** Run ops [from, to); records each guest-visible value. */
    void run(const std::vector<TrapOp> &ops, std::size_t from,
             std::size_t to, Tracer *tracer, const char *span,
             std::int64_t parent)
    {
        GuestApi &api = sys.api();
        for (std::size_t i = from; i < to; ++i) {
            const TrapOp &op = ops[i];
            std::uint64_t got = 0, want = 0;
            {
                Span s(tracer, span, parent, i);
                switch (op.kind) {
                case TrapKind::Cpuid: {
                    CpuidResult r = api.cpuid(op.index);
                    got = r.eax ^ (r.ebx << 16) ^ (r.ecx << 32) ^
                          (r.edx << 48) ^ (r.edx >> 16);
                    break;
                }
                case TrapKind::Rdmsr:
                    got = api.rdmsr(trapMsrBase + op.index);
                    break;
                case TrapKind::Wrmsr:
                    api.wrmsr(trapMsrBase + op.index, op.a);
                    break;
                case TrapKind::Vmcall:
                    got = api.vmcall(trapHypercall, op.a, op.b);
                    break;
                case TrapKind::IoOut:
                    api.ioOut(trapPort, op.a);
                    break;
                case TrapKind::IoIn:
                    got = api.ioIn(trapPort);
                    break;
                }
            }
            // The model of L1's emulation.
            switch (op.kind) {
            case TrapKind::Cpuid:
                want = got; // checked across modes
                break;
            case TrapKind::Rdmsr:
                want = msrs[op.index];
                break;
            case TrapKind::Wrmsr:
                msrs[op.index] = op.a;
                break;
            case TrapKind::Vmcall:
                want = hypercallResult(op.a, op.b);
                break;
            case TrapKind::IoOut:
                modelPort = op.a;
                break;
            case TrapKind::IoIn:
                want = modelPort;
                break;
            }
            if (got != want)
                ++failed;
            values.push_back(got);
        }
    }

    NestedSystem sys;
    std::uint64_t portReg = 0;
    std::uint64_t modelPort = 0;
    std::uint64_t msrs[trapMsrCount] = {};
    std::vector<std::uint64_t> values;
    std::uint64_t failed = 0;
};

Round
runTrapRounds(std::uint64_t seed, Size size, Tracer *tracer)
{
    const std::size_t perMode = size == Size::Full ? 75000 : 3000;
    const std::size_t warm = size == Size::Full ? 2000 : 200;
    const std::vector<TrapOp> ops = trapInputs(seed, perMode);

    Round r;
    Fingerprint in;
    for (const TrapOp &op : ops) {
        in.add(static_cast<std::uint64_t>(op.kind));
        in.add(static_cast<std::uint64_t>(op.index));
        in.add(op.a);
        in.add(op.b);
    }
    r.inputs = in.value();

    const std::int64_t round =
        tracer ? tracer->open("round.trap_rounds", Tracer::noParent, 0)
               : Tracer::noParent;
    const auto t0 = Clock::now();

    std::vector<std::unique_ptr<TrapSystem>> systems;
    for (std::size_t m = 0; m < std::size(trapModes); ++m) {
        systems.push_back(
            std::make_unique<TrapSystem>(trapModes[m], seed + m));
        systems.back()->values.reserve(perMode);
        systems.back()->run(ops, 0, warm, nullptr, nullptr, round);
    }

    std::vector<Pmu> before;
    std::vector<Ticks> simStart;
    for (auto &s : systems) {
        before.push_back(Pmu::of(s->sys.machine()));
        simStart.push_back(s->sys.machine().now());
    }
    const CpuTimes c0 = cpuTimes(RUSAGE_SELF);
    const auto t1 = Clock::now();
    for (std::size_t m = 0; m < systems.size(); ++m)
        systems[m]->run(ops, warm, perMode, tracer, trapSpanNames[m],
                        round);
    const auto t2 = Clock::now();
    const CpuTimes c1 = cpuTimes(RUSAGE_SELF);
    if (tracer)
        tracer->finish(round, t0, t2);

    r.setupS = seconds(t0, t1);
    r.wallS = seconds(t1, t2);
    r.cpuS = c1.total() - c0.total();
    r.attempted = perMode * systems.size();

    Pmu all, sw, hw;
    Fingerprint fp;
    for (std::size_t m = 0; m < systems.size(); ++m) {
        TrapSystem &s = *systems[m];
        Machine &mach = s.sys.machine();
        r.simUs += toUsec(mach.now() - simStart[m]);
        Pmu after = Pmu::of(mach);
        after.addDelta(before[m], all);
        if (trapModes[m] == VirtMode::SwSvt)
            after.addDelta(before[m], sw);
        if (trapModes[m] == VirtMode::HwSvt)
            after.addDelta(before[m], hw);
        r.failed += s.failed;
        // Guest-visible values must not depend on the mode.
        if (m > 0)
            for (std::size_t i = 0; i < perMode; ++i)
                if (s.values[i] != systems[0]->values[i])
                    ++r.failed;
        Fingerprint vals;
        for (std::uint64_t v : s.values)
            vals.add(v);
        fp.add(vals.value());
        addMachine(fp, mach);
    }
    r.fingerprint = fp.value();

    const double timed = static_cast<double>(perMode - warm);
    const double ops3 = timed * static_cast<double>(systems.size());
    r.counts["hv.reflects_per_op"] =
        Metric{all.get("l0.reflect") / ops3, "count/op"};
    r.counts["hv.transforms_per_op"] =
        Metric{(all.get("l0.transform_02_to_12") +
                all.get("l0.transform_12_to_02")) /
                   ops3,
               "count/op"};
    r.counts["virt.vmx_exits_per_op"] =
        Metric{all.get("vmx.exit") / ops3, "count/op"};
    r.counts["virt.vmcs_shadow_per_op"] =
        Metric{(all.get("vmx.shadow_read") + all.get("vmx.shadow_write")) /
                   ops3,
               "count/op"};
    r.counts["svt.ring_posts_per_op"] =
        Metric{sw.get("ring.posted") / timed, "count/op"};
    r.counts["svt.switches_per_op"] =
        Metric{hw.get("svt.switch") / timed, "count/op"};
    r.counts["sim.events_per_op"] =
        Metric{static_cast<double>(all.events) / ops3, "count/op"};
    perUnitTime(r, "virt.host_ns_per_vmx_exit", 1e9, "ns",
                all.get("vmx.exit"));
    return r;
}

void
trapSpanTimes(const Tracer &tracer, MetricMap &out)
{
    for (std::size_t m = 0; m < std::size(trapModes); ++m)
        percentiles(tracer, trapSpanNames[m],
                    std::string("hv.trap_ns_p50.") + trapModeNames[m],
                    std::string("hv.trap_ns_p99.") + trapModeNames[m],
                    out);
    out["hv.trap_samples"] =
        Metric{static_cast<double>(tracer.samples(trapSpanNames[0]).size()),
               "count"};
}

// ------------------------------------------------------------ disk_rw
//
// A closed loop at iodepth 4 of seeded random 4 KiB reads and writes
// through VirtioBlkStack::submit, retiring completions via
// GuestApi::halt, on nested and SW SVt stacks, each in the paper
// configuration and at the top exit-elision rung.

constexpr int diskDepth = 4;
constexpr std::uint32_t diskBytes = 4096;

struct DiskReq
{
    std::uint64_t lba;
    bool write;
};

StackConfig
diskConfig(VirtMode mode, bool elision)
{
    StackConfig cfg;
    cfg.mode = mode;
    if (elision) {
        cfg.postedInterrupts = true;
        cfg.virtioQueues = 4;
        cfg.virtioCoalesceCount = 4;
        cfg.virtioCoalesceTimeout = usec(20);
    }
    return cfg;
}

struct DiskSystem
{
    DiskSystem(VirtMode mode, bool elision, std::uint64_t seed,
               const std::vector<DiskReq> &reqs)
        : sys(mode, diskConfig(mode, elision), seed),
          disk(sys.machine(), "ramdisk"), blk(sys.stack(), disk),
          reqs(reqs), state(reqs.size(), 0)
    {
        blk.setCompletionHandler([this](std::uint64_t id) {
            if (id == 0 || id > state.size() || state[id - 1] != 1) {
                ++bad;
                return;
            }
            state[id - 1] = 2;
            --inflight;
            ++done;
            order.add(id);
        });
    }

    /** Closed loop until @p to requests have completed. */
    void run(std::size_t to, Tracer *tracer, std::int64_t parent)
    {
        GuestApi &api = sys.api();
        Machine &m = sys.machine();
        const Ticks stallLimit = m.now() + sec(100);
        while (done < to && m.now() < stallLimit) {
            while (inflight < diskDepth && submitted < to) {
                const std::uint64_t id = ++submitted;
                Span s(tracer, "io.blk.submit", parent, id);
                api.compute(m.costs().guestBlockSyscall);
                state[id - 1] = 1;
                ++inflight;
                const DiskReq &q = reqs[id - 1];
                blk.submit(id, q.lba, diskBytes, q.write);
            }
            Span s(tracer, "io.blk.wait", parent, done + 1);
            api.halt();
        }
    }

    /**
     * The warm-up: the first @p to requests, with the simulator's trace
     * sink recording when each interrupt is raised. The guest's own
     * exits hide the device's service time from every completion, so
     * these ticks are what shows which requests were writes.
     */
    void warmUp(std::size_t to)
    {
        Machine &m = sys.machine();
        TraceSink sink(m.events(), std::size_t{1} << 16);
        sink.setEnabled(true);
        m.setTraceSink(&sink);
        run(to, nullptr, Tracer::noParent);
        m.setTraceSink(nullptr);
        for (const TraceEvent &ev : sink.events()) {
            if (ev.name == "irq.raise") {
                irqRaises.add(ev.start);
                irqRaises.add(ev.value);
            }
        }
    }

    NestedSystem sys;
    RamDisk disk;
    VirtioBlkStack blk;
    const std::vector<DiskReq> &reqs;
    std::vector<std::uint8_t> state; ///< 0 new, 1 in flight, 2 done
    std::uint64_t submitted = 0;
    std::uint64_t inflight = 0;
    std::uint64_t done = 0;
    std::uint64_t bad = 0;
    Fingerprint order;
    Fingerprint irqRaises;
};

Round
runDiskRw(std::uint64_t seed, Size size, Tracer *tracer)
{
    const std::size_t perSystem = size == Size::Full ? 12000 : 300;
    const std::size_t warm = 64;

    InputGen gen(seed ^ 0x6469736b00000000ULL);
    std::vector<DiskReq> reqs(perSystem);
    Fingerprint in;
    for (DiskReq &q : reqs) {
        q.lba = gen.below(std::uint64_t{1} << 21) & ~std::uint64_t{7};
        q.write = gen.below(2) == 1;
        in.add(q.lba);
        in.add(static_cast<std::uint64_t>(q.write));
    }

    Round r;
    r.inputs = in.value();
    const std::int64_t round =
        tracer ? tracer->open("round.disk_rw", Tracer::noParent, 0)
               : Tracer::noParent;
    const auto t0 = Clock::now();

    struct Variant
    {
        VirtMode mode;
        bool elision;
    };
    const Variant variants[] = {{VirtMode::Nested, false},
                                {VirtMode::Nested, true},
                                {VirtMode::SwSvt, false},
                                {VirtMode::SwSvt, true}};
    std::vector<std::unique_ptr<DiskSystem>> systems;
    for (std::size_t i = 0; i < std::size(variants); ++i) {
        systems.push_back(std::make_unique<DiskSystem>(
            variants[i].mode, variants[i].elision, seed + i, reqs));
        systems.back()->warmUp(warm);
    }

    std::vector<Pmu> before;
    std::vector<Ticks> simStart;
    std::vector<std::uint64_t> batchesStart;
    for (auto &s : systems) {
        before.push_back(Pmu::of(s->sys.machine()));
        simStart.push_back(s->sys.machine().now());
        batchesStart.push_back(s->blk.l1IrqBatches());
    }
    const CpuTimes c0 = cpuTimes(RUSAGE_SELF);
    const auto t1 = Clock::now();
    for (auto &s : systems)
        s->run(perSystem, tracer, round);
    const auto t2 = Clock::now();
    const CpuTimes c1 = cpuTimes(RUSAGE_SELF);
    if (tracer)
        tracer->finish(round, t0, t2);

    r.setupS = seconds(t0, t1);
    r.wallS = seconds(t1, t2);
    r.cpuS = c1.total() - c0.total();

    Pmu all;
    double batches = 0;
    Fingerprint fp;
    for (std::size_t i = 0; i < systems.size(); ++i) {
        DiskSystem &s = *systems[i];
        Machine &m = s.sys.machine();
        r.attempted += perSystem;
        r.failed += (perSystem - s.done) + s.bad;
        r.simUs += toUsec(m.now() - simStart[i]);
        Pmu::of(m).addDelta(before[i], all);
        batches +=
            static_cast<double>(s.blk.l1IrqBatches() - batchesStart[i]);
        addMachine(fp, m);
        fp.add(s.done);
        fp.add(s.blk.completedCount());
        fp.add(s.blk.l1IrqBatches());
        fp.add(s.order.value());
        fp.add(s.irqRaises.value());
    }
    r.fingerprint = fp.value();

    const double reqsTimed =
        static_cast<double>((perSystem - warm) * systems.size());
    r.counts["arch.irq_delivered_per_req"] =
        Metric{(all.get("irq.delivered.l0") + all.get("irq.delivered.l1") +
                all.get("irq.delivered.l2")) /
                   reqsTimed,
               "count/req"};
    r.counts["arch.irq_posted_per_req"] =
        Metric{all.get("irq.posted") / reqsTimed, "count/req"};
    r.counts["io.blk.kicks_per_req"] =
        Metric{all.get("blk.kicks") / reqsTimed, "count/req"};
    r.counts["io.blk.irq_batches_per_req"] =
        Metric{batches / reqsTimed, "count/req"};
    r.counts["io.elided_per_req"] =
        Metric{(all.get("l2.exit.elided.posted") +
                all.get("l2.exit.elided.eoi")) /
                   reqsTimed,
               "count/req"};
    r.counts["virt.vmx_exits_per_op"] =
        Metric{all.get("vmx.exit") / reqsTimed, "count/op"};
    r.counts["sim.events_per_op"] =
        Metric{static_cast<double>(all.events) / reqsTimed, "count/op"};
    perUnitTime(r, "virt.host_ns_per_vmx_exit", 1e9, "ns",
                all.get("vmx.exit"));
    perUnitTime(r, "sim.host_ns_per_event", 1e9, "ns",
                static_cast<double>(all.events));
    return r;
}

void
diskSpanTimes(const Tracer &tracer, MetricMap &out)
{
    percentiles(tracer, "io.blk.submit", "io.blk.submit_ns_p50",
                "io.blk.submit_ns_p99", out);
    percentiles(tracer, "io.blk.wait", "io.blk.wait_ns_p50",
                "io.blk.wait_ns_p99", out);
}

// ------------------------------------------------------ memcached_rpc
//
// The fig8 shape: a nested or SW SVt memcached server and a native
// mutilate client on one CrossLink, open-loop ETC at an offered rate
// under the nested knee and one past it, one cluster worker.

struct McPoint
{
    explicit McPoint(ClusterBuild b) : build(std::move(b)) {}

    ClusterBuild build;
    std::unique_ptr<VirtioNetStack> net;
    std::unique_ptr<MemcachedServer> server;
    std::unique_ptr<MutilateClient> client;
    MemcachedPoint point;
    CpuTimes driver;
};

/** Realize one server/client pair with seeds drawn from @p gen. The
 *  drivers record the CPU time of their own threads. */
std::unique_ptr<McPoint>
makePoint(VirtMode mode, double qps, Ticks duration, InputGen &gen,
          Fingerprint &in, Tracer *tracer, std::int64_t round,
          double &realizeS)
{
    const std::uint64_t clusterSeed = gen.next();
    const std::uint64_t serverSeed = gen.next();
    const std::uint64_t clientSeed = gen.next();
    in.add(clusterSeed);
    in.add(serverSeed);
    in.add(clientSeed);

    const auto rs = Clock::now();
    auto p = std::make_unique<McPoint>(ClusterSpec()
                                           .machine("server", mode)
                                           .machine("client", VirtMode::Native)
                                           .link("server", "client")
                                           .realize(clusterSeed));
    const auto re = Clock::now();
    realizeS += seconds(rs, re);
    if (tracer)
        tracer->record("system.cluster.realize", rs, re, round, 0);

    McPoint *pp = p.get();
    pp->net = std::make_unique<VirtioNetStack>(
        pp->build.stack("server"), pp->build.port("server", "client"));
    pp->server = std::make_unique<MemcachedServer>(
        pp->build.stack("server"), *pp->net, serverSeed);
    pp->client = std::make_unique<MutilateClient>(
        pp->build.machine("client"), pp->build.port("client", "server"),
        clientSeed);
    pp->build.driver("server", [pp, duration, tracer,
                                round](NestedSystem &) {
        const CpuTimes c = cpuTimes(RUSAGE_THREAD);
        {
            Span s(tracer, "system.cluster.driver.server", round);
            pp->server->serveUntil(duration);
        }
        const CpuTimes e = cpuTimes(RUSAGE_THREAD);
        pp->driver.user += e.user - c.user;
        pp->driver.sys += e.sys - c.sys;
    });
    pp->build.driver("client", [pp, duration, qps, tracer,
                                round](NestedSystem &) {
        const CpuTimes c = cpuTimes(RUSAGE_THREAD);
        MemcachedPoint pt;
        {
            Span s(tracer, "system.cluster.driver.client", round);
            pt = pp->client->runLoad(qps, duration);
        }
        const CpuTimes e = cpuTimes(RUSAGE_THREAD);
        pp->point = pt;
        pp->driver.user += e.user - c.user;
        pp->driver.sys += e.sys - c.sys;
    });
    return p;
}

Round
runMemcachedRpc(std::uint64_t seed, Size size, Tracer *tracer)
{
    const Ticks duration = size == Size::Full ? msec(200) : msec(8);
    const VirtMode modes[] = {VirtMode::Nested, VirtMode::SwSvt};
    const double rates[] = {8000.0, 20000.0};

    InputGen gen(seed ^ 0x6d63000000000000ULL);
    Round r;
    Fingerprint in;
    const std::int64_t round =
        tracer ? tracer->open("round.memcached_rpc", Tracer::noParent, 0)
               : Tracer::noParent;
    const auto t0 = Clock::now();

    // Warm-up: one short point, so the timed clusters do not pay for
    // first-touch allocator and thread start-up costs.
    {
        InputGen warmGen(seed);
        Fingerprint unused;
        double unusedS = 0;
        makePoint(VirtMode::Nested, rates[0], msec(2), warmGen, unused,
                  nullptr, Tracer::noParent, unusedS)
            ->build.run(1);
    }

    std::vector<std::unique_ptr<McPoint>> points;
    double realizeS = 0;
    for (VirtMode mode : modes)
        for (double qps : rates)
            points.push_back(makePoint(mode, qps, duration, gen, in,
                                       tracer, round, realizeS));
    r.inputs = in.value();

    const CpuTimes c0 = cpuTimes(RUSAGE_SELF);
    const auto t1 = Clock::now();
    std::vector<ClusterStats> stats;
    for (auto &p : points) {
        Span s(tracer, "system.cluster.run", round);
        stats.push_back(p->build.run(1));
    }
    const auto t2 = Clock::now();
    const CpuTimes c1 = cpuTimes(RUSAGE_SELF);
    if (tracer)
        tracer->finish(round, t0, t2);

    r.setupS = seconds(t0, t1);
    r.wallS = seconds(t1, t2);
    r.cpuS = c1.total() - c0.total();

    double completed = 0, packets = 0, epochs = 0, steps = 0,
           events = 0, exits = 0;
    CpuTimes drivers;
    Fingerprint fp;
    for (std::size_t i = 0; i < points.size(); ++i) {
        McPoint &p = *points[i];
        CrossLink &link = p.build.link("server", "client");
        const int serverEnd =
            &link.port(0) == &p.build.port("server", "client") ? 0 : 1;
        const std::uint64_t sent = link.delivered(serverEnd);
        const std::uint64_t answered = link.delivered(1 - serverEnd);
        r.attempted += sent;
        if (p.point.completed < sent)
            r.failed += sent - p.point.completed;

        for (const char *name : {"server", "client"}) {
            Machine &m = p.build.machine(name);
            r.simUs += toUsec(m.now());
            events += static_cast<double>(m.events().executedCount());
            addMachine(fp, m);
        }
        exits += static_cast<double>(
            counter(p.build.machine("server"), "vmx.exit"));
        completed += static_cast<double>(p.point.completed);
        packets += static_cast<double>(sent + answered);
        epochs += static_cast<double>(stats[i].epochs);
        steps += static_cast<double>(stats[i].steps);
        drivers.user += p.driver.user;
        drivers.sys += p.driver.sys;

        fp.add(sent);
        fp.add(answered);
        fp.add(p.point.completed);
        fp.add(p.point.achievedQps);
        fp.add(p.point.avgUsec);
        fp.add(p.point.p99Usec);
        fp.add(stats[i].epochs);
        fp.add(stats[i].steps);
        fp.add(stats[i].merged);
    }
    r.fingerprint = fp.value();

    r.counts["workloads.mc.completed"] = Metric{completed, "count"};
    r.counts["io.crosslink.packets_per_req"] =
        Metric{ratio(packets, completed), "count/req"};
    r.counts["system.cluster.epochs_per_req"] =
        Metric{ratio(epochs, completed), "count/req"};
    r.counts["system.cluster.steps_per_epoch"] =
        Metric{ratio(steps, epochs), "count/epoch"};
    r.counts["sim.events_per_op"] =
        Metric{ratio(events, completed), "count/op"};
    r.counts["virt.vmx_exits_per_op"] =
        Metric{ratio(exits, completed), "count/op"};
    perUnitTime(r, "system.cluster.host_us_per_epoch", 1e6, "us", epochs);
    perUnitTime(r, "sim.host_ns_per_event", 1e9, "ns", events);
    perUnitTime(r, "virt.host_ns_per_vmx_exit", 1e9, "ns", exits);
    r.times["system.cluster.driver_user_s"] = Metric{drivers.user, "s"};
    r.times["system.cluster.driver_sys_s"] = Metric{drivers.sys, "s"};
    r.times["system.cluster.realize_ms"] = Metric{realizeS * 1e3, "ms"};
    return r;
}

// ---------------------------------------------------------- fleet_mix
//
// FleetScheduler on the Table 4 2x8x2 topology (memcached pool, TPC-C,
// video) under the svt-pair and sibling-share policies, run through
// the sweep engine with two cluster workers.

constexpr int fleetWorkers = 2;

FleetSpec
fleetSpec(Size size, PlacementPolicy policy)
{
    const bool full = size == Size::Full;
    FleetSpec spec;
    spec.topology = TopologySpec{2, 8, 2};
    spec.policy = policy;
    TenantSpec mc = memcachedTenant("mc", 6, 6000.0);
    mc.duration = full ? msec(125) : msec(10);
    TenantSpec db = tpccTenant("db", 5);
    db.duration = full ? msec(250) : msec(20);
    TenantSpec vid = videoTenant("video", 5, 60.0, 0.01);
    vid.duration = full ? msec(1250) : msec(100);
    spec.tenants = {mc, db, vid};
    return spec;
}

Round
runFleetMix(std::uint64_t seed, Size size, Tracer *tracer)
{
    const PlacementPolicy policies[] = {PlacementPolicy::SvtPair,
                                        PlacementPolicy::SiblingShare};
    Round r;
    const std::int64_t round =
        tracer ? tracer->open("round.fleet_mix", Tracer::noParent, 0)
               : Tracer::noParent;
    const auto t0 = Clock::now();

    std::vector<std::unique_ptr<FleetScheduler>> scheds;
    std::vector<FleetOutcome> outcomes(std::size(policies));
    std::vector<Scenario> scenarios;
    Fingerprint in;
    double placeS = 0;
    for (std::size_t i = 0; i < std::size(policies); ++i) {
        const FleetSpec spec = fleetSpec(size, policies[i]);
        const auto ps = Clock::now();
        scheds.push_back(std::make_unique<FleetScheduler>(spec, seed));
        const auto pe = Clock::now();
        placeS += seconds(ps, pe);
        if (tracer)
            tracer->record("system.fleet.place", ps, pe, round, i);
        for (const PlacementSlot &slot : scheds.back()->placement().slots) {
            in.add(static_cast<std::int64_t>(slot.tenant));
            in.add(static_cast<std::int64_t>(slot.core));
            in.add(static_cast<std::int64_t>(slot.thread));
        }

        Scenario sc;
        sc.name = placementPolicyName(policies[i]);
        sc.mode = policies[i] == PlacementPolicy::SvtPair
                      ? spec.pairedMode
                      : VirtMode::Nested;
        FleetScheduler *sched = scheds.back().get();
        FleetOutcome *out = &outcomes[i];
        sc.clusterRun = [sched, out, tracer, round,
                         i](ClusterContext &ctx, ScenarioResult &res) {
            Span s(tracer, "system.fleet.run", round, i);
            *out = sched->run(ctx, res);
        };
        scenarios.push_back(std::move(sc));
    }
    r.inputs = in.value();

    // Warm-up: a short fleet on the same worker count.
    FleetScheduler(fleetSpec(Size::Tiny, policies[0]), seed)
        .run(fleetWorkers);

    SweepOptions opts;
    opts.jobs = 1;
    opts.baseSeed = seed;
    opts.clusterJobs = fleetWorkers;

    const CpuTimes c0 = cpuTimes(RUSAGE_SELF);
    const auto t1 = Clock::now();
    const SweepResults res = runSweep(scenarios, opts);
    const auto t2 = Clock::now();
    const CpuTimes c1 = cpuTimes(RUSAGE_SELF);
    if (tracer)
        tracer->finish(round, t0, t2);

    r.setupS = seconds(t0, t1);
    r.wallS = seconds(t1, t2);
    r.cpuS = c1.total() - c0.total();

    double completed = 0, epochs = 0, steps = 0;
    Fingerprint fp;
    for (std::size_t i = 0; i < res.all().size(); ++i) {
        const ScenarioResult &sr = res.all()[i];
        if (!sr.ok()) {
            ++r.attempted;
            ++r.failed;
            continue;
        }
        for (const auto &[key, value] : sr.metrics()) {
            fp.add(key);
            fp.add(value);
            if (key.rfind("final_ticks_m", 0) == 0)
                r.simUs += toUsec(static_cast<Ticks>(value));
        }
        for (const TenantOutcome &t : outcomes[i].tenants) {
            fp.add(t.completed);
            fp.add(t.sloValue);
            r.attempted += t.completed;
            completed += static_cast<double>(t.completed);
        }
        fp.add(outcomes[i].fleetP99Usec);
        epochs += sr.metric("cluster_epochs");
        steps += sr.metric("cluster_steps");
    }
    r.fingerprint = fp.value();

    r.counts["workloads.fleet.completed"] = Metric{completed, "count"};
    r.counts["system.cluster.epochs_per_req"] =
        Metric{ratio(epochs, completed), "count/req"};
    r.counts["system.cluster.steps_per_epoch"] =
        Metric{ratio(steps, epochs), "count/epoch"};
    perUnitTime(r, "system.cluster.host_us_per_epoch", 1e6, "us", epochs);
    r.times["system.fleet.place_ms"] = Metric{placeS * 1e3, "ms"};
    r.times["system.fleet.run_user_s"] = Metric{c1.user - c0.user, "s"};
    r.times["system.fleet.run_sys_s"] = Metric{c1.sys - c0.sys, "s"};
    return r;
}

void
noSpanTimes(const Tracer &, MetricMap &)
{}

} // namespace

const std::vector<Workload> &
workloads()
{
    // Also the order in which a traced run probes the layers its own
    // workload skips, first probe first: the event-driven workloads
    // lead, so per-op event and exit counts describe the event core.
    static const std::vector<Workload> all = {
        {"disk_rw", 1, runDiskRw, diskSpanTimes},
        {"memcached_rpc", 1, runMemcachedRpc, noSpanTimes},
        {"trap_rounds", 1, runTrapRounds, trapSpanTimes},
        {"fleet_mix", fleetWorkers, runFleetMix, noSpanTimes},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace hostbench
