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
VmxEngine::guestVmcsAccess(VmcsField field, std::uint64_t &value,
                           bool write)
{
    if (!inGuest_)
        panic("guest %s outside guest mode", write ? "vmwrite" : "vmread");
    Vmcs *shadow = current_ ? current_->shadowLink() : nullptr;
    if (!shadow ||
        !(current_->read(VmcsField::ProcControls2) & procCtl2ShadowVmcs) ||
        !vmcsFieldShadows(field, write))
        return false;
    machine_.consume(machine_.costs().vmShadowAccess);
    if (write) {
        shadow->write(field, value);
        shadowWriteMetric_.inc();
    } else {
        value = shadow->read(field);
        shadowReadMetric_.inc();
    }
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Vmcs,
                         write ? "vmcs.shadow_write" : "vmcs.shadow_read");
    return true;
}

} // namespace svtsim
