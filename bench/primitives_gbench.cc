/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's hot primitives
 * (wall-clock performance of the simulator itself, not simulated
 * time): event queue operations, VMCS accesses, EPT walks, one
 * context's register spill and reload, and the full nested-trap round
 * in each mode.
 */

#include <benchmark/benchmark.h>

#include "arch/smt_core.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "system/bench_harness.h"
#include "system/nested_system.h"
#include "virt/ept.h"
#include "virt/vmcs.h"

using namespace svtsim;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        eq.scheduleIn(nsec(10), [] {});
        eq.advanceBy(nsec(20));
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_VmcsReadWrite(benchmark::State &state)
{
    Vmcs vmcs("bench");
    std::uint64_t v = 0;
    for (auto _ : state) {
        vmcs.write(VmcsField::GuestRip, v);
        benchmark::DoNotOptimize(v = vmcs.read(VmcsField::GuestRip));
        ++v;
    }
}
BENCHMARK(BM_VmcsReadWrite);

void
BM_EptTranslate(benchmark::State &state)
{
    Ept ept("bench");
    for (Gpa g = 0; g < 1024 * pageSize; g += pageSize)
        ept.map(g, g + (1ULL << 30));
    Gpa addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ept.translate(addr, EptAccess::Read));
        addr = (addr + pageSize) % (1024 * pageSize);
    }
}
BENCHMARK(BM_EptTranslate);

void
BM_ContextGprTransfer(benchmark::State &state)
{
    // The register-file layer of a trap round: spill a context's GPRs
    // into a vCPU-struct image and reload them.
    EventQueue eq;
    CostModel costs;
    SmtCore core(eq, costs, 0, 2, 0);
    HwContext &ctx = core.context(1);
    GprValues spill{};
    for (auto _ : state) {
        spill = ctx.readGprs();
        ++spill[0];
        ctx.writeGprs(spill);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ContextGprTransfer);

void
BM_NestedCpuidRound(benchmark::State &state)
{
    auto mode = static_cast<VirtMode>(state.range(0));
    NestedSystem sys(mode);
    GuestApi &api = sys.api();
    api.cpuid(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(api.cpuid(1));
    state.SetLabel(virtModeName(mode));
}
BENCHMARK(BM_NestedCpuidRound)
    ->Arg(static_cast<int>(VirtMode::Nested))
    ->Arg(static_cast<int>(VirtMode::SwSvt))
    ->Arg(static_cast<int>(VirtMode::HwSvt));

void
BM_DiskRequestRound(benchmark::State &state)
{
    NestedSystem sys(VirtMode::Nested);
    RamDisk disk(sys.machine(), "bench");
    VirtioBlkStack blk(sys.stack(), disk);
    bool done = false;
    blk.setCompletionHandler([&](std::uint64_t) { done = true; });
    std::uint64_t id = 1;
    for (auto _ : state) {
        done = false;
        blk.submit(id++, 0, 512, false);
        while (!done)
            sys.api().halt();
    }
}
BENCHMARK(BM_DiskRequestRound);

} // namespace

int
main(int argc, char **argv)
{
    // Wall-clock benchmarks are not a deterministic sweep; the
    // harness parses --seed and --help and forwards the rest
    // (--benchmark_filter and friends) to google-benchmark.
    BenchHarness bench("primitives_gbench",
                       "google-benchmark micro-benchmarks of the "
                       "simulator's hot primitives (wall clock)");
    bench.onForwardMain(
        [](int fwd_argc, char **fwd_argv) {
            benchmark::Initialize(&fwd_argc, fwd_argv);
            if (benchmark::ReportUnrecognizedArguments(fwd_argc,
                                                       fwd_argv))
                return 1;
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
            return 0;
        });
    return bench.main(argc, argv);
}
