#include "virt/vmx.h"

#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

VmxEngine::VmxEngine(Machine &machine, SmtCore &core, int ctx)
    : machine_(machine), core_(core), ctx_(ctx)
{
    if (ctx < 0 || ctx >= core.numContexts())
        fatal("VmxEngine context %d out of range", ctx);

    MetricsRegistry &reg = machine_.metrics();
    entryMetric_ = reg.counter(MetricScope::Machine, "vmx", "vmx.entry");
    exitMetric_ = reg.counter(MetricScope::Machine, "vmx", "vmx.exit");
    shadowReadMetric_ =
        reg.counter(MetricScope::Machine, "vmx", "vmx.shadow_read");
    shadowWriteMetric_ =
        reg.counter(MetricScope::Machine, "vmx", "vmx.shadow_write");
    for (std::size_t r = 0; r < exitReasonMetric_.size(); ++r) {
        exitReasonMetric_[r] = reg.counter(
            MetricScope::Machine, "vmx",
            std::string("vmx.exit.") +
                exitReasonName(static_cast<ExitReason>(r)));
    }
}

void
VmxEngine::vmxon()
{
    if (vmxOn_)
        panic("vmxon while already in VMX operation");
    machine_.consume(machine_.costs().vmptrld);
    vmxOn_ = true;
}

void
VmxEngine::vmxoff()
{
    if (!vmxOn_)
        panic("vmxoff outside VMX operation");
    if (inGuest_)
        panic("vmxoff in guest mode");
    vmxOn_ = false;
    current_ = nullptr;
}

void
VmxEngine::vmptrld(Vmcs *vmcs)
{
    if (!vmxOn_)
        panic("vmptrld outside VMX operation");
    if (!vmcs)
        panic("vmptrld of null VMCS");
    machine_.consume(machine_.costs().vmptrld);
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Vmx,
                         "vmx.vmptrld");
    current_ = vmcs;
}

void
VmxEngine::vmclear(Vmcs *vmcs)
{
    if (!vmxOn_)
        panic("vmclear outside VMX operation");
    if (!vmcs)
        panic("vmclear of null VMCS");
    machine_.consume(machine_.costs().vmptrld);
    vmcs->setState(Vmcs::State::Clear);
    if (current_ == vmcs)
        current_ = nullptr;
}

std::uint64_t
VmxEngine::vmread(VmcsField field)
{
    if (!current_)
        panic("vmread with no current VMCS");
    machine_.consume(machine_.costs().vmread);
    return current_->read(field);
}

void
VmxEngine::vmwrite(VmcsField field, std::uint64_t value)
{
    if (!current_)
        panic("vmwrite with no current VMCS");
    if (vmcsFieldClass(field) == VmcsFieldClass::ExitInfo)
        panic("vmwrite to read-only exit-info field %s",
              vmcsFieldName(field));
    machine_.consume(machine_.costs().vmwrite);
    current_->write(field, value);
}

Ticks
VmxEngine::hypervisorStateSwitchCost() const
{
    const CostModel &costs = machine_.costs();
    if (current_->read(VmcsField::EntryControls) &
        entryCtlLoadHypervisorState) {
        return costs.msrSwitch * costs.msrSwitchCount;
    }
    return 0;
}

void
VmxEngine::vmentry(bool launch)
{
    if (!vmxOn_)
        panic("vmentry outside VMX operation");
    if (inGuest_)
        panic("vmentry while already in guest mode");
    if (!current_)
        panic("vmentry with no current VMCS");
    if (launch && current_->state() == Vmcs::State::Launched)
        panic("vmlaunch of an already-launched VMCS");
    if (!launch && current_->state() == Vmcs::State::Clear)
        panic("vmresume of a clear VMCS");

    const CostModel &costs = machine_.costs();
    machine_.consume(costs.vmEntryHw + hypervisorStateSwitchCost());

    // Load the guest's special registers from the VMCS. GPRs are NOT
    // switched by hardware (the hypervisor's thunk handles those).
    HwContext &ctx = context();
    ctx.rip = current_->read(VmcsField::GuestRip);
    ctx.rflags = current_->read(VmcsField::GuestRflags);
    ctx.writeCr(Ctrl::Cr0, current_->read(VmcsField::GuestCr0));
    ctx.writeCr(Ctrl::Cr3, current_->read(VmcsField::GuestCr3));
    ctx.writeCr(Ctrl::Cr4, current_->read(VmcsField::GuestCr4));

    current_->setState(Vmcs::State::Launched);
    inGuest_ = true;
    entryMetric_.inc();
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Vmx,
                         "vmx.entry");
}

void
VmxEngine::vmexit(const ExitInfo &info)
{
    if (!inGuest_)
        panic("vmexit outside guest mode");
    if (!current_)
        panic("vmexit with no current VMCS");

    const CostModel &costs = machine_.costs();
    machine_.consume(costs.vmExitHw + hypervisorStateSwitchCost());

    // Save guest special state, record why we exited, load host state.
    HwContext &ctx = context();
    current_->write(VmcsField::GuestRip, ctx.rip);
    current_->write(VmcsField::GuestRflags, ctx.rflags);
    current_->write(VmcsField::GuestCr0, ctx.readCr(Ctrl::Cr0));
    current_->write(VmcsField::GuestCr3, ctx.readCr(Ctrl::Cr3));
    current_->write(VmcsField::GuestCr4, ctx.readCr(Ctrl::Cr4));
    current_->recordExit(info);

    ctx.rip = current_->read(VmcsField::HostRip);
    ctx.writeCr(Ctrl::Cr0, current_->read(VmcsField::HostCr0));
    ctx.writeCr(Ctrl::Cr3, current_->read(VmcsField::HostCr3));
    ctx.writeCr(Ctrl::Cr4, current_->read(VmcsField::HostCr4));

    inGuest_ = false;
    exitMetric_.inc();
    exitReasonMetric_[static_cast<std::size_t>(info.reason)].inc();
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Vmx,
                         std::string("vmx.exit.") +
                             exitReasonName(info.reason));
}

bool
VmxEngine::guestVmread(VmcsField field, std::uint64_t &value)
{
    if (!inGuest_)
        panic("guestVmread outside guest mode");
    Vmcs *shadow = current_ ? current_->shadowLink() : nullptr;
    bool shadowing = current_ &&
                     (current_->read(VmcsField::ProcControls2) &
                      procCtl2ShadowVmcs);
    if (shadowing && shadow && vmcsFieldIsShadowable(field)) {
        machine_.consume(machine_.costs().vmShadowAccess);
        value = shadow->read(field);
        shadowReadMetric_.inc();
        SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Vmcs,
                             "vmcs.shadow_read");
        return true;
    }
    return false;
}

bool
VmxEngine::guestVmwrite(VmcsField field, std::uint64_t value)
{
    if (!inGuest_)
        panic("guestVmwrite outside guest mode");
    Vmcs *shadow = current_ ? current_->shadowLink() : nullptr;
    bool shadowing = current_ &&
                     (current_->read(VmcsField::ProcControls2) &
                      procCtl2ShadowVmcs);
    if (shadowing && shadow && vmcsFieldIsShadowable(field) &&
        vmcsFieldClass(field) != VmcsFieldClass::ExitInfo) {
        machine_.consume(machine_.costs().vmShadowAccess);
        shadow->write(field, value);
        shadowWriteMetric_.inc();
        SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Vmcs,
                             "vmcs.shadow_write");
        return true;
    }
    return false;
}

} // namespace svtsim
