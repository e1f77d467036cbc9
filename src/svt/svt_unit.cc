#include "svt/svt_unit.h"

#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

SvtUnit::SvtUnit(Machine &machine, SmtCore &core)
    : machine_(machine), core_(core)
{
    MetricsRegistry &reg = machine_.metrics();
    switchMetric_ = reg.counter(MetricScope::Svt, "svt", "svt.switch");
    vmResumeMetric_ =
        reg.counter(MetricScope::Svt, "svt", "svt.vm_resume");
    vmTrapMetric_ = reg.counter(MetricScope::Svt, "svt", "svt.vm_trap");
    directReflectMetric_ =
        reg.counter(MetricScope::Svt, "svt", "svt.direct_reflect");
    ctxtldMetric_ = reg.counter(MetricScope::Svt, "svt", "svt.ctxtld");
    ctxtstMetric_ = reg.counter(MetricScope::Svt, "svt", "svt.ctxtst");
}

void
SvtUnit::enable()
{
    enabled_ = true;
    uregs_ = SvtUregs{};
    uregs_.current = static_cast<std::uint64_t>(core_.activeContext());
    // SVt gives the illusion of a single hardware thread: every
    // context except the active one is stalled from here on.
    for (int i = 0; i < core_.numContexts(); ++i)
        core_.context(i).stalled = (i != core_.activeContext());
}

void
SvtUnit::disable()
{
    enabled_ = false;
    // Undo enable()'s single-thread illusion: with SVt off the core
    // must behave exactly like a baseline SMT core again (Section 3.3
    // coexistence), so every hardware context becomes runnable.
    for (int i = 0; i < core_.numContexts(); ++i)
        core_.context(i).stalled = false;
}

void
SvtUnit::requireEnabled(const char *op) const
{
    if (!enabled_)
        panic("SvtUnit: %s with SVt disabled", op);
}

void
SvtUnit::loadFromVmcs(const Vmcs &vmcs)
{
    requireEnabled("loadFromVmcs");
    machine_.consume(machine_.costs().svtFieldLoad);
    uregs_.visor = vmcs.read(VmcsField::SvtVisor);
    uregs_.vm = vmcs.read(VmcsField::SvtVm);
    uregs_.nested = vmcs.read(VmcsField::SvtNested);
}

void
SvtUnit::vmResume()
{
    requireEnabled("vmResume");
    if (uregs_.vm == svtInvalidContext ||
        uregs_.vm >= static_cast<std::uint64_t>(core_.numContexts())) {
        panic("SvtUnit::vmResume with invalid SVt_vm %llu",
              static_cast<unsigned long long>(uregs_.vm));
    }
    machine_.consume(machine_.costs().svtSwitch);
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Svt,
                         "svt.vm_resume");
    uregs_.current = uregs_.vm;
    uregs_.isVm = true;
    core_.retargetFetch(static_cast<int>(uregs_.current));
    switchMetric_.inc();
    vmResumeMetric_.inc();
}

void
SvtUnit::vmTrap()
{
    requireEnabled("vmTrap");
    if (uregs_.visor == svtInvalidContext ||
        uregs_.visor >=
            static_cast<std::uint64_t>(core_.numContexts())) {
        panic("SvtUnit::vmTrap with invalid SVt_visor %llu",
              static_cast<unsigned long long>(uregs_.visor));
    }
    machine_.consume(machine_.costs().svtSwitch);
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Svt,
                         "svt.vm_trap");
    uregs_.current = uregs_.visor;
    uregs_.isVm = false;
    core_.retargetFetch(static_cast<int>(uregs_.current));
    switchMetric_.inc();
    vmTrapMetric_.inc();
}

void
SvtUnit::directReflect(int handler_ctx)
{
    requireEnabled("directReflect");
    if (handler_ctx < 0 || handler_ctx >= core_.numContexts()) {
        panic("SvtUnit::directReflect to invalid context %d",
              handler_ctx);
    }
    machine_.consume(machine_.costs().svtSwitch);
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Svt,
                         "svt.direct_reflect");
    uregs_.current = static_cast<std::uint64_t>(handler_ctx);
    uregs_.isVm = true;
    core_.retargetFetch(handler_ctx);
    switchMetric_.inc();
    directReflectMetric_.inc();
}

int
SvtUnit::resolveTarget(int lvl) const
{
    std::uint64_t target = svtInvalidContext;
    if (!uregs_.isVm) {
        if (lvl == 1)
            target = uregs_.vm;
        else if (lvl == 2)
            target = uregs_.nested;
    } else {
        if (lvl == 1)
            target = uregs_.nested;
    }
    if (target == svtInvalidContext ||
        target >= static_cast<std::uint64_t>(core_.numContexts())) {
        return -1;
    }
    return static_cast<int>(target);
}

HwContext *
SvtUnit::targetContext(int lvl, bool &traps)
{
    requireEnabled("cross-context access");
    traps = false;
    int target = resolveTarget(lvl);
    if (target < 0) {
        traps = true;
        return nullptr;
    }
    return &core_.context(target);
}

SvtUnit::Access
SvtUnit::ctxtld(int lvl, Gpr reg, std::uint64_t &out)
{
    bool traps;
    HwContext *ctx = targetContext(lvl, traps);
    if (traps || (uregs_.isVm && guestTrapMask_.test(
                                     static_cast<std::size_t>(reg)))) {
        return Access::Trap;
    }
    machine_.consume(machine_.costs().ctxtRegAccess);
    out = ctx->readGpr(reg);
    ctxtldMetric_.inc();
    return Access::Ok;
}

SvtUnit::Access
SvtUnit::ctxtst(int lvl, Gpr reg, std::uint64_t value)
{
    bool traps;
    HwContext *ctx = targetContext(lvl, traps);
    if (traps || (uregs_.isVm && guestTrapMask_.test(
                                     static_cast<std::size_t>(reg)))) {
        return Access::Trap;
    }
    machine_.consume(machine_.costs().ctxtRegAccess);
    ctx->writeGpr(reg, value);
    ctxtstMetric_.inc();
    return Access::Ok;
}

SvtUnit::Access
SvtUnit::ctxtld(int lvl, SvtSpecialReg reg, std::uint64_t &out)
{
    bool traps;
    HwContext *ctx = targetContext(lvl, traps);
    if (traps)
        return Access::Trap;
    machine_.consume(machine_.costs().ctxtRegAccess);
    switch (reg) {
      case SvtSpecialReg::Rip: out = ctx->rip; break;
      case SvtSpecialReg::Rflags: out = ctx->rflags; break;
      case SvtSpecialReg::Cr0: out = ctx->readCr(Ctrl::Cr0); break;
      case SvtSpecialReg::Cr3: out = ctx->readCr(Ctrl::Cr3); break;
      case SvtSpecialReg::Cr4: out = ctx->readCr(Ctrl::Cr4); break;
    }
    ctxtldMetric_.inc();
    return Access::Ok;
}

SvtUnit::Access
SvtUnit::ctxtst(int lvl, SvtSpecialReg reg, std::uint64_t value)
{
    bool traps;
    HwContext *ctx = targetContext(lvl, traps);
    if (traps)
        return Access::Trap;
    machine_.consume(machine_.costs().ctxtRegAccess);
    switch (reg) {
      case SvtSpecialReg::Rip: ctx->rip = value; break;
      case SvtSpecialReg::Rflags: ctx->rflags = value; break;
      case SvtSpecialReg::Cr0: ctx->writeCr(Ctrl::Cr0, value); break;
      case SvtSpecialReg::Cr3: ctx->writeCr(Ctrl::Cr3, value); break;
      case SvtSpecialReg::Cr4: ctx->writeCr(Ctrl::Cr4, value); break;
    }
    ctxtstMetric_.inc();
    return Access::Ok;
}

void
SvtUnit::setGuestGprTrap(Gpr reg, bool trap)
{
    guestTrapMask_.set(static_cast<std::size_t>(reg), trap);
}

bool
SvtUnit::guestGprTraps(Gpr reg) const
{
    return guestTrapMask_.test(static_cast<std::size_t>(reg));
}

} // namespace svtsim
