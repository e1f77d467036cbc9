/**
 * @file
 * VirtStack assembly, the per-level GuestApi implementations and the
 * interrupt pump. The nested trap machinery (Algorithm 1) lives in
 * nested_flow.cc.
 */

#include "hv/virt_stack.h"

#include "hv/vectors.h"
#include "hv/virt_stack_impl.h"
#include "sim/log.h"

namespace svtsim {

const char *
virtModeName(VirtMode mode)
{
    switch (mode) {
      case VirtMode::Native: return "native";
      case VirtMode::Single: return "single-level";
      case VirtMode::Nested: return "nested-baseline";
      case VirtMode::SwSvt: return "sw-svt";
      case VirtMode::HwSvt: return "hw-svt";
    }
    return "?";
}

namespace {

/** Validate the config before any member construction touches it;
 *  the stack runs on the machine's first core. */
SmtCore &
checkedCore(Machine &machine, const StackConfig &config)
{
    validateStackConfig(config);
    return machine.core(0);
}

} // namespace

VirtStack::VirtStack(Machine &machine, StackConfig config)
    : machine_(machine), config_(config),
      core_(checkedCore(machine, config))
{
    setupCommon();
    switch (config_.mode) {
      case VirtMode::Native:
        break;
      case VirtMode::Single:
        setupSingle();
        break;
      case VirtMode::Nested:
      case VirtMode::SwSvt:
      case VirtMode::HwSvt:
        setupNested();
        break;
    }
}

VirtStack::~VirtStack() = default;

void
VirtStack::setupCommon()
{
    for (int i = 0; i < core_.numContexts(); ++i) {
        engines_.push_back(
            std::make_unique<VmxEngine>(machine_, core_, i));
    }
    svt_ = std::make_unique<SvtUnit>(machine_, core_);

    vmcs01_ = std::make_unique<Vmcs>("vmcs01");
    vmcs12_ = std::make_unique<Vmcs>("vmcs12");
    vmcs02_ = std::make_unique<Vmcs>("vmcs02");
    vmcs01s_ = std::make_unique<Vmcs>("vmcs01-sibling");

    ept02_ = std::make_unique<Ept>("ept02");

    vcpuL1_ = std::make_unique<Vcpu>(machine_, "l0.vcpu[l1]");
    vcpuL2InL0_ = std::make_unique<Vcpu>(machine_, "l0.vcpu[l2]");
    vcpuL2InL1_ = std::make_unique<Vcpu>(machine_, "l1.vcpu[l2]");

    // cpuid views: the host table, what L0 shows L1 (keeps VMX so L1
    // can nest), and what L1 shows L2 (no further nesting).
    CpuidDb host_db = CpuidDb::host();
    l0CpuidView_ = host_db.guestView(/*keep_vmx=*/true);
    guestHv_ = std::make_unique<GuestHypervisor>(
        l0CpuidView_.guestView(/*keep_vmx=*/false));

    nativeApi_ = std::make_unique<NativeApi>(*this, host_db);
    l1Api_ = std::make_unique<L1Api>(*this);
    l2Api_ = std::make_unique<L2Api>(*this);

    ringToSvt_ =
        std::make_unique<CommandRing>(machine_, "ring.to_svt");
    ringFromSvt_ =
        std::make_unique<CommandRing>(machine_, "ring.from_svt");

    // Simulated-PMU registration: every counter the nested flow (and
    // the benches/tests querying Machine::counter) touches must exist
    // before first use. Registered for every mode so zero-valued
    // lookups stay valid and the export schema is mode-independent.
    MetricsRegistry &reg = machine_.metrics();
    for (std::size_t r = 0;
         r < static_cast<std::size_t>(ExitReason::NumReasons); ++r) {
        const char *rn = exitReasonName(static_cast<ExitReason>(r));
        l2ExitMetric_[r].count = reg.counter(
            MetricScope::L2, "hv", std::string("l2.exit.") + rn);
        l2ExitMetric_[r].latency = reg.histogram(
            MetricScope::L2, "hv",
            std::string("l2.exit_latency.") + rn);
        l0ExitMetric_[r].count = reg.counter(
            MetricScope::L0, "hv", std::string("l0.exit.") + rn);
        l0ExitMetric_[r].latency = reg.histogram(
            MetricScope::L0, "hv",
            std::string("l0.exit_latency.") + rn);
    }
    transform0212Metric_ =
        reg.counter(MetricScope::L0, "hv", "l0.transform_02_to_12");
    transform1202Metric_ =
        reg.counter(MetricScope::L0, "hv", "l0.transform_12_to_02");
    reflectMetric_ = reg.counter(MetricScope::L0, "hv", "l0.reflect");
    directReflectMetric_ =
        reg.counter(MetricScope::L0, "hv", "l0.direct_reflect");
    ept02FillMetric_ =
        reg.counter(MetricScope::L0, "hv", "l0.ept02_fill");
    ept02MmioMetric_ =
        reg.counter(MetricScope::L0, "hv", "l0.ept02_mmio");
    hkOverlappedMetric_ = reg.counter(MetricScope::L1, "hv",
                                      "l1.housekeeping.overlapped");
    hkSerialMetric_ =
        reg.counter(MetricScope::L1, "hv", "l1.housekeeping.serial");
    ctxMultiplexMetric_ =
        reg.counter(MetricScope::Svt, "hv", "svt.ctx_multiplex");
    preemptionMetric_ =
        reg.counter(MetricScope::Svt, "hv", "swsvt.preemption");
    svtBlockedMetric_ =
        reg.counter(MetricScope::Svt, "hv", "swsvt.svt_blocked");
    swsvtPairedMetric_ =
        reg.counter(MetricScope::Svt, "hv", "swsvt.paired");
    svtFallbackMetric_ =
        reg.counter(MetricScope::Svt, "hv", "svt.fallback");
    svtRepromoteMetric_ =
        reg.counter(MetricScope::Svt, "hv", "svt.repromote");
    svtWatchdogRetryMetric_ =
        reg.counter(MetricScope::Svt, "hv", "svt.watchdog.retry");
    for (int level = 0; level < 3; ++level) {
        irqDeliveredMetric_[static_cast<std::size_t>(level)] =
            reg.counter(level == 0   ? MetricScope::L0
                        : level == 1 ? MetricScope::L1
                                     : MetricScope::L2,
                        "irq",
                        "irq.delivered.l" + std::to_string(level));
    }
    elidedExitMetric_ =
        reg.counter(MetricScope::L2, "hv", "l2.exit.elided.posted");
    elidedEoiMetric_ =
        reg.counter(MetricScope::L2, "hv", "l2.exit.elided.eoi");
    postedNotifyMetric_ =
        reg.counter(MetricScope::L2, "irq", "irq.posted.notify");
    // Re-open the aggregate vmx.exit slots the engines registered.
    vmxExitMetric_ =
        reg.counter(MetricScope::Machine, "vmx", "vmx.exit");
    for (std::size_t r = 0;
         r < static_cast<std::size_t>(ExitReason::NumReasons); ++r) {
        vmxExitReasonMetric_[r] = reg.counter(
            MetricScope::Machine, "vmx",
            std::string("vmx.exit.") +
                exitReasonName(static_cast<ExitReason>(r)));
    }

    // L1's virtual timer interrupt forwards L2's deadline (the
    // GuestHypervisor owns the bookkeeping).
    guestHv_->wireL2IrqRaiser(
        [this](std::uint8_t v) { raiseL2Irq(v); });
    setIrqHandler(1, vec::l1Timer,
                  [this] { guestHv_->onL1TimerFired(); });
}

void
VirtStack::setupSingle()
{
    VmxEngine &e0 = *engines_[0];
    e0.vmxon();
    vmcs01_->write(VmcsField::HostRip, 0xffffffff81000000ULL);
    vmcs01_->write(VmcsField::GuestRip, 0xffffffff80000000ULL);
    e0.vmptrld(vmcs01_.get());
    e0.vmentry(true);
    singleGuestRunning_ = true;
    l1Engine_ = &e0;
}

void
VirtStack::setupNested()
{
    VmxEngine &e0 = *engines_[0];
    e0.vmxon();

    // vmcs01 describes L1: a hypervisor-grade guest (MSR switch lists,
    // Table 1 row 4), optionally with the hardware shadow VMCS linked.
    vmcs01_->write(VmcsField::EntryControls,
                   entryCtlLoadHypervisorState);
    vmcs01_->write(VmcsField::HostRip, 0xffffffff81000000ULL);
    vmcs01_->write(VmcsField::GuestRip, 0xffffffff80000000ULL);
    if (config_.hwVmcsShadowing) {
        vmcs01_->write(VmcsField::ProcControls2, procCtl2ShadowVmcs);
        vmcs01_->setShadowLink(vmcs12_.get());
    }

    vmcs02_->write(VmcsField::HostRip, 0xffffffff81000000ULL);
    vmcs02_->write(VmcsField::GuestRip, 0x400000);

    if (config_.mode == VirtMode::HwSvt) {
        if (core_.numContexts() < 2) {
            fatal("HW SVt needs >= 2 hardware contexts on core %d",
                  core_.id());
        }
        // Section 3.1: with fewer hardware contexts than
        // virtualization levels, the hypervisor multiplexes L1 and
        // L2 on the shared context.
        svtMultiplexed_ = core_.numContexts() < 3;
        if (svtMultiplexed_ && config_.svtDirectReflect) {
            fatal("direct reflect needs a dedicated context per "
                  "level");
        }
        int l2_ctx = svtMultiplexed_ ? 1 : 2;
        svt_->enable();
        // Section 4: L0 on context-0, L1 on context-1, L2 on
        // context-2; vmcs01 carries virtualized ids for L1's view.
        vmcs01_->write(VmcsField::SvtVisor, 0);
        vmcs01_->write(VmcsField::SvtVm, 1);
        vmcs01_->write(VmcsField::SvtNested,
                       svtMultiplexed_ ? svtInvalidContext : 2);
        vmcs02_->write(VmcsField::SvtVisor, 0);
        vmcs02_->write(VmcsField::SvtVm,
                       static_cast<std::uint64_t>(l2_ctx));
        // All external interrupts steered to the hypervisor context
        // (Section 3.1).
        for (int i = 1; i < core_.numContexts(); ++i)
            core_.lapic(i).redirect = &core_.lapic(0);

        // Boot bookkeeping: both VMCSs count as launched.
        vmcs01_->setState(Vmcs::State::Launched);
        vmcs02_->setState(Vmcs::State::Launched);
        e0.vmptrld(vmcs02_.get());
        svt_->loadFromVmcs(*vmcs02_);
        svt_->vmResume();
        svtCtx1Owner_ = 2;
        l2Running_ = true;
        return;
    }

    // Boot L1 once (launch, then it halts into L0).
    e0.vmptrld(vmcs01_.get());
    e0.vmentry(true);
    e0.vmexit(ExitInfo{.reason = ExitReason::Hlt});

    if (config_.mode == VirtMode::SwSvt) {
        if (core_.numContexts() < 2) {
            fatal("SW SVt needs an SMT sibling on core %d",
                  core_.id());
        }
        // The SVt-thread (L1's second vCPU) parks on the sibling
        // hardware thread, inside the guest, waiting on the ring.
        VmxEngine &e1 = *engines_[1];
        e1.vmxon();
        vmcs01s_->write(VmcsField::EntryControls,
                        entryCtlLoadHypervisorState);
        vmcs01s_->write(VmcsField::HostRip, 0xffffffff81000000ULL);
        vmcs01s_->write(VmcsField::GuestRip, 0xffffffff80000000ULL);
        if (config_.hwVmcsShadowing) {
            vmcs01s_->write(VmcsField::ProcControls2,
                            procCtl2ShadowVmcs);
            vmcs01s_->setShadowLink(vmcs12_.get());
        }
        e1.vmptrld(vmcs01s_.get());
        e1.vmentry(true);
        // L1 pairs the vCPU and the SVt-thread through a hypercall so
        // L0 reschedules them together (Section 5.2).
        swsvtPairedMetric_.inc();
    }

    // L1 launches L2; L0 runs it on vmcs02 (Turtles, Figure 2).
    e0.vmptrld(vmcs02_.get());
    e0.vmentry(true);
    l2Running_ = true;
}

GuestApi &
VirtStack::api()
{
    switch (config_.mode) {
      case VirtMode::Native:
        return *nativeApi_;
      case VirtMode::Single:
        return *l1Api_;
      default:
        return *l2Api_;
    }
}

GuestApi &
VirtStack::apiAt(int level)
{
    switch (level) {
      case 0:
        return *nativeApi_;
      case 1:
        return *l1Api_;
      case 2:
        return *l2Api_;
      default:
        panic("VirtStack::apiAt: invalid level %d", level);
    }
}

void
VirtStack::run(const GuestProgram &program)
{
    program(api());
}

HwContext &
VirtStack::l2Context()
{
    if (config_.mode != VirtMode::HwSvt)
        return core_.context(0);
    return core_.context(svtMultiplexed_ ? 1 : 2);
}

void
VirtStack::raiseHostIrq(std::uint8_t vector)
{
    int target = 0;
    if (config_.mode == VirtMode::HwSvt)
        target = static_cast<int>(svt_->uregs().current);
    core_.lapic(target).assertExternal(vector);
}

void
VirtStack::raiseL1Irq(std::uint8_t vector)
{
    vcpuL1_->lapic().raise(vector);
}

void
VirtStack::raiseL2Irq(std::uint8_t vector)
{
    if (config_.postedInterrupts) {
        // Exit-elision rung 1: write the vector into the posted
        // descriptor; the notification (if one is needed) is the
        // pump's job, so a raise from any context stays cheap.
        if (vcpuL2InL1_->lapic().postInterrupt(vector))
            postedNotifyMetric_.inc();
        return;
    }
    vcpuL2InL1_->lapic().raise(vector);
}

void
VirtStack::setIrqHandler(int level, std::uint8_t vector,
                         std::function<void()> handler)
{
    if (level < 0 || level > 2)
        panic("setIrqHandler: invalid level %d", level);
    irqHandlers_[static_cast<std::size_t>(level)][vector] =
        std::move(handler);
}

void
VirtStack::runIrqHandler(int level, int vector)
{
    auto &table = irqHandlers_[static_cast<std::size_t>(level)];
    auto it = table.find(static_cast<std::uint8_t>(vector));
    irqDeliveredMetric_[static_cast<std::size_t>(level)].inc();
    if (it != table.end() && it->second)
        it->second();
}

void
VirtStack::armSvtThreadPreemption(Ticks duration)
{
    if (config_.mode != VirtMode::SwSvt)
        fatal("SVt-thread preemption only exists in SW SVt mode");
    pendingPreemption_ = duration;
}

// --------------------------------------------------------------- pumping

int
VirtStack::pumpInterrupts()
{
    if (pumping_)
        return 0;
    pumping_ = true;
    int total = 0;
    switch (config_.mode) {
      case VirtMode::Native:
        total = pumpNative();
        break;
      case VirtMode::Single:
        total = pumpSingle();
        break;
      default: {
        // L2 is logically runnable if it was executing when the pump
        // started, or once any interrupt delivery woke it from HLT.
        bool runnable = l2Running_;
        Lapic &phys = core_.lapic(0);
        for (;;) {
            if (phys.hasPending()) {
                if (l2Running_)
                    exitFromL2(ExitInfo{
                        .reason = ExitReason::ExternalInterrupt});
                int v = phys.ack();
                machine_.consume(machine_.costs().interruptDeliver);
                runIrqHandler(0, v);
                ++total;
                continue;
            }
            if (vcpuL1_->lapic().hasPending()) {
                if (l2Running_)
                    exitFromL2(ExitInfo{
                        .reason = ExitReason::ExternalInterrupt});
                int n = deliverL1Irqs();
                total += n;
                if (l2DeliveredVector_ >= 0)
                    runnable = true;
                continue;
            }
            if (config_.postedInterrupts &&
                (vcpuL2InL1_->lapic().hasPosted() ||
                 vcpuL2InL1_->lapic().hasPending())) {
                if (l2Running_) {
                    // Rung 1 of the exit-elision ladder: the
                    // notification lands on the running L2 without a
                    // nested exit.
                    total += deliverPostedToL2();
                    runnable = true;
                    continue;
                }
                // L2 halted: nothing recognizes the notification, so
                // sync the PIR into the IRR and fall through to the
                // conventional injection path below (no interrupt is
                // ever lost to a halted vCPU).
                vcpuL2InL1_->lapic().syncPosted();
            }
            if (vcpuL2InL1_->lapic().hasPending()) {
                if (l2Running_)
                    exitFromL2(ExitInfo{
                        .reason = ExitReason::ExternalInterrupt});
                enterL1Window();
                total += maybeInjectAndResumeL2(runnable);
                if (l2DeliveredVector_ >= 0)
                    runnable = true;
                continue;
            }
            break;
        }
        if (runnable && !l2Running_)
            resumeL2();
        break;
      }
    }
    pumping_ = false;
    return total;
}

int
VirtStack::deliverL1Irqs()
{
    // Precondition: L0 in control (L2 exited).
    enterL1Window();
    int n = ackAndHandleIrqs(vcpuL1_->lapic(), 1);
    // Piggyback injection of any L2 vectors the handlers raised;
    // otherwise the L1 vCPU idles again.
    n += maybeInjectAndResumeL2(/*l2_was_running=*/false);
    return n;
}

int
VirtStack::deliverPostedToL2()
{
    if (!l2Running_)
        panic("deliverPostedToL2 with L2 halted");
    const CostModel &costs = machine_.costs();
    Lapic &apic = vcpuL2InL1_->lapic();
    // The notification microcode scans the descriptor and merges the
    // PIR into the IRR; delivery then goes through the guest IDT with
    // no VM exit at any level.
    apic.syncPosted();
    int n = 0;
    int v;
    while ((v = apic.ack()) >= 0) {
        machine_.consume(costs.postedIntrNotify +
                         costs.interruptDeliver);
        elidedExitMetric_.inc();
        l2DeliveredVector_ = v;
        runIrqHandler(2, v);
        // x2APIC-virtualized EOI: the write is satisfied from the
        // virtual-APIC page, so the trap-to-L1-to-L0 round is elided.
        machine_.consume(costs.virtApicEoi);
        elidedEoiMetric_.inc();
        ++n;
        if (!l2Running_)
            break;
        // The handler may have completed more I/O and posted again.
        apic.syncPosted();
    }
    return n;
}

int
VirtStack::ackAndHandleIrqs(Lapic &apic, int level, int *last)
{
    const CostModel &costs = machine_.costs();
    int n = 0;
    int v;
    while ((v = apic.ack()) >= 0) {
        machine_.consume(costs.interruptDeliver);
        runIrqHandler(level, v);
        machine_.consume(costs.eoiWrite);
        if (last)
            *last = v;
        ++n;
    }
    return n;
}

int
VirtStack::pumpNative()
{
    return ackAndHandleIrqs(core_.lapic(0), 0, &l2DeliveredVector_);
}

int
VirtStack::pumpSingle()
{
    int total = 0;
    Lapic &phys = core_.lapic(0);
    VmxEngine &e0 = *engines_[0];
    const CostModel &costs = machine_.costs();
    bool was_running = singleGuestRunning_;
    for (;;) {
        if (phys.hasPending()) {
            if (singleGuestRunning_) {
                machine_.consume(costs.thunkRegSave * costs.thunkRegs);
                e0.vmexit(ExitInfo{
                    .reason = ExitReason::ExternalInterrupt});
                singleGuestRunning_ = false;
            }
            int v = phys.ack();
            machine_.consume(costs.interruptDeliver);
            runIrqHandler(0, v);
            ++total;
            continue;
        }
        if (vcpuL1_->lapic().hasPending()) {
            // Inject into the (single-level) guest and resume it.
            if (singleGuestRunning_) {
                machine_.consume(costs.thunkRegSave * costs.thunkRegs);
                e0.vmexit(ExitInfo{
                    .reason = ExitReason::ExternalInterrupt});
                singleGuestRunning_ = false;
            }
            int v = vcpuL1_->lapic().ack();
            machine_.consume(costs.injectPrepare);
            e0.vmwrite(VmcsField::EntryIntrInfo,
                       static_cast<std::uint64_t>(v));
            e0.vmentry(false);
            machine_.consume(costs.thunkRegRestore * costs.thunkRegs);
            singleGuestRunning_ = true;
            machine_.consume(costs.interruptDeliver);
            l2DeliveredVector_ = v;
            runIrqHandler(1, v);
            machine_.consume(costs.eoiWrite);
            ++total;
            continue;
        }
        break;
    }
    if (was_running && !singleGuestRunning_) {
        // Resume the guest if an external-interrupt exit stranded it
        // in L0 (a halted guest only resumes through injection).
        e0.vmentry(false);
        machine_.consume(costs.thunkRegRestore * costs.thunkRegs);
        singleGuestRunning_ = true;
    }
    return total;
}

// ------------------------------------------------------------ NativeApi

void
NativeApi::compute(Ticks t)
{
    stack_.pumpInterrupts();
    stack_.machine_.consume(t);
}

CpuidResult
NativeApi::cpuid(std::uint64_t leaf)
{
    stack_.pumpInterrupts();
    stack_.machine_.consume(stack_.machine_.costs().cpuidExec);
    return db_.query(leaf);
}

std::uint64_t
NativeApi::rdmsr(std::uint32_t index)
{
    stack_.pumpInterrupts();
    stack_.machine_.consume(stack_.machine_.costs().msrNative);
    auto it = msrs_.find(index);
    return it == msrs_.end() ? 0 : it->second;
}

void
NativeApi::wrmsr(std::uint32_t index, std::uint64_t value)
{
    stack_.pumpInterrupts();
    stack_.machine_.consume(stack_.machine_.costs().msrNative);
    if (index == msr::ia32TscDeadline) {
        if (value == 0)
            stack_.core_.lapic(0).cancelTscDeadline();
        else
            stack_.core_.lapic(0).armTscDeadline(
                static_cast<Ticks>(value), vec::hostTimer);
        return;
    }
    msrs_[index] = value;
}

// Bare metal maps no MMIO devices and its I/O ports float.

std::uint64_t
NativeApi::mmioRead(Gpa addr, int)
{
    panic("NativeApi: MMIO read of unmapped address %#llx",
          static_cast<unsigned long long>(addr));
}

void
NativeApi::mmioWrite(Gpa addr, int, std::uint64_t)
{
    panic("NativeApi: MMIO write to unmapped address %#llx",
          static_cast<unsigned long long>(addr));
}

void
NativeApi::ioOut(std::uint16_t, std::uint64_t)
{
    stack_.pumpInterrupts();
    stack_.machine_.consume(stack_.machine_.costs().llcAccess);
}

std::uint64_t
NativeApi::ioIn(std::uint16_t)
{
    stack_.pumpInterrupts();
    stack_.machine_.consume(stack_.machine_.costs().llcAccess);
    return ~0ULL;
}

std::uint64_t
NativeApi::vmcall(std::uint64_t, std::uint64_t, std::uint64_t)
{
    panic("NativeApi: vmcall on bare metal");
}

int
NativeApi::halt()
{
    stack_.l2DeliveredVector_ = -1;
    return waitForInterrupt("NativeApi");
}

// ---------------------------------------------------------- LevelApiBase

int
LevelApiBase::pollInterrupt()
{
    stack_.l2DeliveredVector_ = -1;
    stack_.pumpInterrupts();
    return stack_.l2DeliveredVector_;
}

int
LevelApiBase::waitForInterrupt(const char *api)
{
    for (;;) {
        stack_.pumpInterrupts();
        if (stack_.l2DeliveredVector_ >= 0)
            return stack_.l2DeliveredVector_;
        Ticks next = stack_.machine_.events().nextEventTime();
        if (next == maxTick)
            panic("%s::halt with no pending events (workload "
                  "deadlock)", api);
        stack_.machine_.idleUntil(next);
    }
}

} // namespace svtsim
