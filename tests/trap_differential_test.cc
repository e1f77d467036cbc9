/**
 * @file
 * Differential pins of the nested trap round: per configuration, one
 * hash over ~250 seeded random guest operations. It folds in every
 * operation's result, the simulated clock and the GPR values of every
 * hardware context and of the three vCPU register caches after each
 * operation, then the vmx.*, l0.*, svt.* and ring.* counters and the
 * self-time of every attribution scope at the end.
 *
 * A change to how registers move between contexts and vCPU structs
 * (or to any trap-round cost) moves a hash. A pure refactor keeps all
 * of them. Every draw is an integer draw and no hashed value passes
 * through libm, so the pins hold on any x86-64 toolchain.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "hv/vectors.h"
#include "hv/virt_stack.h"
#include "sim/fault.h"
#include "sim/random.h"

namespace svtsim {
namespace {

/** FNV-1a over 64-bit words. */
class Hasher
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        add(s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** A stack feature a configuration drives beyond the random ops. */
enum class Extra
{
    None,
    /** Arm a 30 us SVt-thread preemption every 10th op (Section 5.3),
     *  with the SVT_BLOCKED fix on. */
    Preempt,
    /** The same preemptions with the fix off: only the watchdog
     *  (armed by an empty fault plan) keeps the stack alive. */
    PreemptNoFix,
    /** HW SVt direct reflect of whitelisted exits (Section 3.1). */
    DirectReflect,
    /** Post 0-70 us of L1 housekeeping before every op. */
    Housekeeping,
};

struct DiffConfig
{
    const char *name;
    VirtMode mode;
    int contexts;
    bool shadowing;
    bool posted;
    /** SW SVt only: a ring fault plan, run with the watchdog armed. */
    const char *faults;
    std::uint64_t expected;
    Extra extra = Extra::None;
};

enum class Op
{
    Cpuid,
    Rdmsr,
    Wrmsr,
    Vmcall,
    PortOut,
    PortIn,
    TimerHalt,
    L2Irq,
    ScribbleGprs, ///< L2 computes: random values land in its GPRs
    NumOps,
};

constexpr int opsPerConfig = 250;
constexpr std::uint64_t cpuidLeaves[] = {0, 1, 4, 7, 0xb, 0x16,
                                         0x40000000, 0x80000001};
constexpr std::uint32_t msrs[] = {
    msr::ia32Lstar,  msr::ia32Star,         msr::ia32FsBase,
    msr::ia32GsBase, msr::ia32KernelGsBase, 0x1234,
};
constexpr std::uint64_t hypercallNr = 7;

void
hashGprs(Hasher &h, const VirtStack &stack, Machine &machine)
{
    for (int c = 0; c < machine.numCores(); ++c) {
        SmtCore &core = machine.core(c);
        for (int i = 0; i < core.numContexts(); ++i)
            for (int r = 0; r < numGprs; ++r)
                h.add(core.context(i).readGpr(static_cast<Gpr>(r)));
    }
    for (const Vcpu *v : {&stack.vcpuL1(), &stack.vcpuL2InL0(),
                          &stack.vcpuL2InL1()})
        for (int r = 0; r < numGprs; ++r)
            h.add(v->gpr(static_cast<Gpr>(r)));
}

/** What one configuration's run produced. */
struct DiffRun
{
    std::uint64_t hash = 0;
    std::uint64_t fallbacks = 0;   ///< svt.fallback
    std::uint64_t multiplexes = 0; ///< svt.ctx_multiplex
    std::uint64_t extras = 0;      ///< rounds that took cfg.extra's path
};

/** The counter that shows @p extra's path was taken. */
const char *
extraCounter(Extra extra)
{
    switch (extra) {
      case Extra::Preempt:
        return "swsvt.svt_blocked";
      case Extra::PreemptNoFix:
        return "swsvt.preemption";
      case Extra::DirectReflect:
        return "l0.direct_reflect";
      case Extra::Housekeeping:
        return "l1.housekeeping.overlapped";
      case Extra::None:
        break;
    }
    return nullptr;
}

std::uint64_t
counterOrZero(const MetricsRegistry &m, const char *name)
{
    return name && m.has(name) ? m.counterValue(name) : 0;
}

DiffRun
runConfig(const DiffConfig &cfg)
{
    Machine machine(MachineTopology{1, 1, cfg.contexts});
    StackConfig sc;
    sc.mode = cfg.mode;
    sc.hwVmcsShadowing = cfg.shadowing;
    sc.postedInterrupts = cfg.posted;
    sc.svtBlockedFix = cfg.extra != Extra::PreemptNoFix;
    sc.svtDirectReflect = cfg.extra == Extra::DirectReflect;
    if (cfg.faults) {
        sc.svtWatchdog.enabled = true;
        sc.svtWatchdog.timeout = usec(10);
        sc.svtWatchdog.maxRetries = 2;
        sc.svtWatchdog.backoff = usec(5);
        sc.svtWatchdog.quietPeriod = usec(200);
        machine.installFaultPlan(FaultPlan::parse(cfg.faults));
    }
    VirtStack stack(machine, sc);
    stack.l1Hv().registerHypercall(
        hypercallNr, [](std::uint64_t a0, std::uint64_t a1) {
            return (a0 << 7) ^ (a1 >> 3) ^ 0x5a5a;
        });
    GuestApi &api = stack.api();
    int irqs = 0;
    api.setIrqHandler(api.timerVector(), [&irqs] { ++irqs; });
    api.setIrqHandler(vec::l2VirtioBlk, [&irqs] { irqs += 16; });

    Rng rng(0xd1ffu);
    Hasher h;
    for (int i = 0; i < opsPerConfig; ++i) {
        const auto op =
            static_cast<Op>(rng.below(static_cast<int>(Op::NumOps)));
        h.add(static_cast<std::uint64_t>(op));
        if ((cfg.extra == Extra::Preempt ||
             cfg.extra == Extra::PreemptNoFix) &&
            i % 10 == 0)
            stack.armSvtThreadPreemption(usec(30));
        if (cfg.extra == Extra::Housekeeping)
            stack.postL1Housekeeping(usec(10) * (i % 8));
        switch (op) {
          case Op::Cpuid: {
            CpuidResult r = api.cpuid(
                cpuidLeaves[rng.below(std::size(cpuidLeaves))]);
            h.add(r.eax);
            h.add(r.ebx);
            h.add(r.ecx);
            h.add(r.edx);
            break;
          }
          case Op::Rdmsr:
            h.add(api.rdmsr(msrs[rng.below(std::size(msrs))]));
            break;
          case Op::Wrmsr: {
            const std::uint32_t index = msrs[rng.below(std::size(msrs))];
            api.wrmsr(index, rng.next());
            break;
          }
          case Op::Vmcall: {
            const std::uint64_t nr = rng.below(2) ? hypercallNr : 9;
            const std::uint64_t a0 = rng.next();
            h.add(api.vmcall(nr, a0, rng.next()));
            break;
          }
          case Op::PortOut: {
            const auto port = static_cast<std::uint16_t>(rng.below(0x400));
            api.ioOut(port, rng.next());
            break;
          }
          case Op::PortIn:
            h.add(api.ioIn(static_cast<std::uint16_t>(rng.below(0x400))));
            break;
          case Op::TimerHalt: {
            const Ticks deadline =
                machine.now() + usec(1) * rng.range(5, 200);
            api.wrmsr(msr::ia32TscDeadline,
                      static_cast<std::uint64_t>(deadline));
            h.add(static_cast<std::uint64_t>(api.halt()));
            break;
          }
          case Op::L2Irq:
            stack.raiseL2Irq(vec::l2VirtioBlk);
            h.add(static_cast<std::uint64_t>(api.pollInterrupt()));
            break;
          case Op::ScribbleGprs: {
            HwContext &ctx = stack.l2Context();
            const int n = static_cast<int>(rng.range(1, numGprs));
            for (int k = 0; k < n; ++k)
                ctx.writeGpr(static_cast<Gpr>(rng.below(numGprs)),
                             rng.next());
            break;
          }
          case Op::NumOps:
            break;
        }
        h.add(static_cast<std::uint64_t>(machine.now()));
        h.add(static_cast<std::uint64_t>(irqs));
        hashGprs(h, stack, machine);
    }

    for (const auto &[name, value] : machine.metrics().counterValues()) {
        if (name.rfind("vmx.", 0) == 0 || name.rfind("l0.", 0) == 0 ||
            name.rfind("svt.", 0) == 0 || name.rfind("ring.", 0) == 0) {
            h.add(name);
            h.add(value);
        }
    }
    for (std::size_t s = 0; s < numScopes; ++s)
        h.add(static_cast<std::uint64_t>(
            machine.scopeTotal(static_cast<ScopeId>(s))));
    const MetricsRegistry &m = machine.metrics();
    return DiffRun{h.value(), counterOrZero(m, "svt.fallback"),
                   counterOrZero(m, "svt.ctx_multiplex"),
                   counterOrZero(m, extraCounter(cfg.extra))};
}

// The two watchdog plans lose three posts in a row (the command and
// both retries), twice: the first window starts at a CMD_VM_TRAP post
// (fallback before L1 ran) or at a CMD_VM_RESUME post (after). The
// last four rows drive the stack features the random ops never reach.
const DiffConfig configs[] = {
    // clang-format off
    {"Nested",             VirtMode::Nested, 2, true,  false, nullptr,
     0xe6330843a5742e18},
    {"NestedNoShadow",     VirtMode::Nested, 2, false, false, nullptr,
     0xe5c333ece744fc2c},
    {"NestedPosted",       VirtMode::Nested, 2, true,  true,  nullptr,
     0x35f67ac4cdfa6892},
    {"SwSvt",              VirtMode::SwSvt,  2, true,  false, nullptr,
     0x7abbc7b794e1de67},
    {"SwSvtNoShadow",      VirtMode::SwSvt,  2, false, false, nullptr,
     0xd63734dc675e3191},
    {"SwSvtPosted",        VirtMode::SwSvt,  2, true,  true,  nullptr,
     0xb3dff02c2ca5549b},
    {"SwSvtTrapLost",      VirtMode::SwSvt,  2, true,  false,
     "ring.post.drop@n1+3;ring.post.drop@n151+3",
     0xcda7751c6a40fb88},
    {"SwSvtResumeLost",    VirtMode::SwSvt,  2, true,  false,
     "ring.post.drop@n2+3;ring.post.drop@n152+3",
     0x312800c392e23396},
    {"SwSvtResumeLostNoShadow", VirtMode::SwSvt, 2, false, false,
     "ring.post.drop@n2+3",
     0x8a45b6e35b351791},
    {"HwSvt3",             VirtMode::HwSvt,  3, true,  false, nullptr,
     0xa53ec8270ab7e038},
    {"HwSvt3NoShadow",     VirtMode::HwSvt,  3, false, false, nullptr,
     0xbe1f23816a829c85},
    {"HwSvt3Posted",       VirtMode::HwSvt,  3, true,  true,  nullptr,
     0xcde6078c9131b81d},
    {"HwSvt2Mux",          VirtMode::HwSvt,  2, true,  false, nullptr,
     0xa1a6d6fab975f6a3},
    {"HwSvt2MuxNoShadow",  VirtMode::HwSvt,  2, false, false, nullptr,
     0x678b09845e08f8d0},
    {"HwSvt2MuxPosted",    VirtMode::HwSvt,  2, true,  true,  nullptr,
     0xffffe4dc9ef7b895},
    {"SwSvtPreempt",       VirtMode::SwSvt,  2, true,  false, nullptr,
     0xa8cb9edfda22c75e, Extra::Preempt},
    {"SwSvtPreemptNoFix",  VirtMode::SwSvt,  2, true,  false, "",
     0x159bb76046ecfd12, Extra::PreemptNoFix},
    {"HwSvt3Direct",       VirtMode::HwSvt,  3, true,  false, nullptr,
     0x4793eeaae9d4cbd4, Extra::DirectReflect},
    {"SwSvtHousekeeping",  VirtMode::SwSvt,  2, true,  false, nullptr,
     0x5a7e53ab70255673, Extra::Housekeeping},
    // clang-format on
};

void
PrintTo(const DiffConfig &cfg, std::ostream *os)
{
    *os << cfg.name;
}

class TrapDifferential : public ::testing::TestWithParam<DiffConfig>
{
};

TEST_P(TrapDifferential, HashIsPinned)
{
    const DiffConfig &cfg = GetParam();
    const DiffRun run = runConfig(cfg);
    // Same inputs, same hash: the run itself is deterministic.
    EXPECT_EQ(runConfig(cfg).hash, run.hash);
    // Each configuration reaches the path it is named for.
    EXPECT_EQ(run.fallbacks > 0, cfg.faults != nullptr);
    EXPECT_EQ(run.multiplexes > 0,
              cfg.mode == VirtMode::HwSvt && cfg.contexts == 2);
    EXPECT_EQ(run.extras > 0, cfg.extra != Extra::None);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(run.hash));
    EXPECT_EQ(run.hash, cfg.expected) << cfg.name << " hashes to " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TrapDifferential, ::testing::ValuesIn(configs),
    [](const ::testing::TestParamInfo<DiffConfig> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace svtsim
