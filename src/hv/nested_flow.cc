/**
 * @file
 * The nested virtualization trap machinery: Algorithm 1 of the paper,
 * written once over the four L0<->L1 transports of its Table 3, plus
 * the Section 3.1 direct reflect, the L1-grade single-level trap round
 * and L1Backend. Also the GuestApi of the two trapping levels: each
 * trapping instruction is encoded once (VirtualizedApi), and L1Api and
 * L2Api each supply only issue(), which enters their trap round.
 */

#include <algorithm>

#include "hv/vectors.h"
#include "hv/virt_stack.h"
#include "hv/virt_stack_impl.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

// ----------------------------------------------------- L2 <-> L0 boundary

void
VirtStack::exitFromL2(const ExitInfo &info)
{
    if (!l2Running_) {
        panic("exitFromL2 while L2 is not running (reason=%s "
              "inL1Window=%d pumping=%d)",
              exitReasonName(info.reason), inL1Window_ ? 1 : 0,
              pumping_ ? 1 : 0);
    }
    const CostModel &c = machine_.costs();
    TimeScope t(machine_, ScopeId::StageSwitchL2L0);
    if (config_.mode == VirtMode::HwSvt) {
        // SVt: squash + fetch retarget; exit info lands in the VMCS
        // with a few field stores, registers stay in context-2.
        svt_->vmTrap();
        vmcs02_->recordExit(info);
        machine_.consume(3 * c.vmcsFieldCopy);
        vmxExitMetric_.inc();
        vmxExitReasonMetric_[static_cast<std::size_t>(info.reason)]
            .inc();
    } else {
        engines_[0]->vmexit(info);
        // Hypervisor thunk: spill L2's GPRs into L0's vcpu struct.
        machine_.consume(c.thunkRegSave * c.thunkRegs);
        vcpuL2InL0_->gprs() = engines_[0]->context().readGprs();
    }
    l2Running_ = false;
}

void
VirtStack::resumeL2()
{
    simAssert(!l2Running_, "resumeL2 while L2 is already running");
    const CostModel &c = machine_.costs();
    TimeScope t(machine_, ScopeId::StageSwitchL2L0);
    VmxEngine &e0 = *engines_[0];
    if (e0.currentVmcs() != vmcs02_.get())
        e0.vmptrld(vmcs02_.get());
    if (config_.mode == VirtMode::HwSvt) {
        svtSwitchOwner(2);
        svt_->loadFromVmcs(*vmcs02_);
        svt_->vmResume();
    } else {
        // Thunk: reload L2's GPRs, then the entry microcode.
        e0.context().writeGprs(vcpuL2InL0_->gprs());
        machine_.consume(c.thunkRegRestore * c.thunkRegs);
        e0.vmentry(false);
    }
    l2Running_ = true;
}

// ----------------------------------------------------------- transforms

Ticks
VirtStack::transformPassCost() const
{
    // The fields carrying guest-physical addresses pay a surcharge.
    constexpr auto addressFields =
        std::count_if(std::begin(vmcsFieldTable), std::end(vmcsFieldTable),
                      [](const VmcsFieldInfo &f) { return f.address; });
    const CostModel &c = machine_.costs();
    return c.vmcsXformFixed +
           static_cast<Ticks>(numVmcsFields) * c.vmcsFieldCopy +
           addressFields * c.vmcsFieldXlate;
}

void
VirtStack::transformVmcs02ToVmcs12()
{
    TimeScope t(machine_, ScopeId::StageTransform);
    machine_.consume(transformPassCost());
    // Reflect L2's architectural state and the exit information into
    // the shadow VMCS (vmcs01' as L1 sees it).
    vmcs12_->copyClassFrom(*vmcs02_, VmcsFieldClass::GuestState);
    vmcs12_->copyClassFrom(*vmcs02_, VmcsFieldClass::ExitInfo);
    transform0212Metric_.inc();
}

void
VirtStack::transformVmcs12ToVmcs02()
{
    const CostModel &c = machine_.costs();
    TimeScope t(machine_, ScopeId::StageTransform);
    machine_.consume(transformPassCost());
    // Apply L1's updates back to the hardware VMCS, translating the
    // address-bearing fields into L0 terms (the EPT pointer stays
    // L0's merged ept02).
    vmcs02_->copyClassFrom(*vmcs12_, VmcsFieldClass::GuestState);
    vmcs02_->write(VmcsField::EntryIntrInfo,
                   vmcs12_->read(VmcsField::EntryIntrInfo));
    vmcs02_->write(VmcsField::TscOffset,
                   vmcs12_->read(VmcsField::TscOffset));
    // Register context reflected back into L0's vcpu struct (not
    // needed with dedicated SVt contexts, where registers never left
    // the hardware).
    const L1Transport tr = transport(/*reflect=*/false);
    if (tr != L1Transport::Ctxt) {
        vcpuL2InL0_->gprs() = vcpuL2InL1_->gprs();
        machine_.consume(2 * numGprs * c.memAccess);
    }
    if (tr == L1Transport::Mux) {
        vcpuL2InL0_->rip = vmcs12_->read(VmcsField::GuestRip);
        vcpuL2InL0_->rflags = vmcs12_->read(VmcsField::GuestRflags);
    }
    transform1202Metric_.inc();
}

// ----------------------------------------------- the nested exit round

namespace {

/** Exit reasons L0 whitelists for the Section 3.1 direct-reflect
 *  extension: their handling touches no L0-owned state. */
bool
directReflectable(ExitReason reason)
{
    switch (reason) {
      case ExitReason::Cpuid:
      case ExitReason::Rdmsr:
      case ExitReason::Vmcall:
      case ExitReason::Pause:
        return true;
      default:
        return false;
    }
}

} // namespace

void
VirtStack::nestedExitFromL2(const ExitInfo &info)
{
    simAssert(isNestedMode(config_.mode),
              "nestedExitFromL2 outside nested mode");
    TimeScope exit_scope(machine_, exitScope(info.reason));
    ReasonMetrics &rm =
        l2ExitMetric_[static_cast<std::size_t>(info.reason)];
    rm.count.inc();
    // Histogram sample = elapsed time while the exit.<reason> scope is
    // open, so the sum of all samples mirrors the trace layer's Exit
    // span durations exactly (the conservation cross-check).
    const Ticks round_start = machine_.now();
    const CostModel &c = machine_.costs();

    // Construction guarantees direct reflect runs on HW SVt with a
    // dedicated context per level.
    if (config_.svtDirectReflect && directReflectable(info.reason)) {
        // Section 3.1 extension: the trap bypasses L0 entirely. The
        // hardware deposits the exit information into the shadow VMCS
        // and retargets fetch to the guest hypervisor's context; only
        // the L1 handler's own trapped operations visit L0.
        simAssert(l2Running_, "direct reflect while L2 not running");
        {
            TimeScope t(machine_, ScopeId::StageSwitchL2L0);
            vmcs12_->recordExit(info);
            machine_.consume(3 * c.vmcsFieldCopy + c.svtFieldLoad);
            svt_->loadFromVmcs(*vmcs01_);
            svt_->directReflect(1);
            l2Running_ = false;
        }
        directReflectMetric_.inc();
        bool resume;
        {
            TimeScope l1(machine_, ScopeId::StageL1Handler);
            l1ViaSvt_ = true;
            resume = guestHv_->handleNestedExit(info, l1Backend_);
            l1ViaSvt_ = false;
        }
        simAssert(resume, "direct-reflected exit must resume");
        {
            // L1's VMRESUME is also served in hardware: fetch
            // retargets straight back to L2's context.
            TimeScope t(machine_, ScopeId::StageSwitchL2L0);
            svt_->loadFromVmcs(*vmcs02_);
            svt_->vmResume();
            l2Running_ = true;
        }
        rm.latency.record(machine_.now() - round_start);
        return;
    }

    exitFromL2(info);

    bool handled_in_l0 = false;
    if (info.reason == ExitReason::EptViolation) {
        // L0 first tries to satisfy the fault from its shadow-EPT
        // merge of ept12 and its own EPT for L1 (the Turtles
        // multi-dimensional paging scheme): only faults L1 has not
        // mapped are reflected.
        TimeScope l0(machine_, ScopeId::StageL0Handler);
        machine_.consume(c.handlerDispatch + c.nestedExitCheck);
        EptAccess acc = (info.qualification & 1) ? EptAccess::Write
                                                 : EptAccess::Read;
        auto r12 = guestHv_->ept().translate(info.guestPhysAddr, acc);
        Gpa page = info.guestPhysAddr & ~(pageSize - 1);
        if (r12.kind == Ept::Result::Kind::Ok) {
            machine_.consume(c.vmcsFieldXlate +
                             r12.levelsWalked * c.memAccess);
            ept02_->map(page, r12.hpa & ~(pageSize - 1));
            ept02FillMetric_.inc();
            handled_in_l0 = true;
        } else if (r12.kind == Ept::Result::Kind::Misconfig) {
            machine_.consume(c.vmcsFieldXlate);
            ept02_->markMmio(page);
            ept02MmioMetric_.inc();
            handled_in_l0 = true;
        }
    }

    bool resume = true;
    if (!handled_in_l0) {
        reflectMetric_.inc();
        transformVmcs02ToVmcs12();
        resume = reflectToL1(info);
    }
    if (resume)
        resumeL2();
    rm.latency.record(machine_.now() - round_start);
}

void
VirtStack::postL1Housekeeping(Ticks cost)
{
    simAssert(cost >= 0, "postL1Housekeeping negative cost");
    l1Housekeeping_ += cost;
}

void
VirtStack::serviceL1Housekeeping(bool overlapped)
{
    if (l1Housekeeping_ <= 0)
        return;
    Ticks work = l1Housekeeping_;
    l1Housekeeping_ = 0;
    if (overlapped) {
        // SW SVt: the L1 vCPU runs its housekeeping on its own
        // hardware thread while the SVt-thread handles the L2 exit
        // (forward progress guaranteed by the Section 5.3 machinery).
        // The overlap is bounded by the exit-handling window; only
        // the excess spills onto the measured path.
        hkOverlappedMetric_.inc();
        Ticks spill = work - machine_.costs().swSvtOverlapWindow;
        if (spill > 0) {
            TimeScope t(machine_, ScopeId::StageL1Housekeeping);
            machine_.consume(spill);
        }
        return;
    }
    // Baseline / HW SVt: one effective thread of execution, so the
    // pending L1 kernel work is serviced before the L2 exit handling
    // proceeds.
    TimeScope t(machine_, ScopeId::StageL1Housekeeping);
    machine_.consume(work);
    hkSerialMetric_.inc();
}

VirtStack::L1Transport
VirtStack::transport(bool reflect) const
{
    if (config_.mode == VirtMode::HwSvt)
        return svtMultiplexed_ ? L1Transport::Mux : L1Transport::Ctxt;
    if (reflect && config_.mode == VirtMode::SwSvt && !svtDegraded_)
        return L1Transport::Ring;
    return L1Transport::Vmcs;
}

void
VirtStack::enterL1(L1Transport t)
{
    if (t == L1Transport::Vmcs) {
        const CostModel &c = machine_.costs();
        engines_[0]->vmentry(false);
        machine_.consume(c.thunkRegRestore * c.thunkRegs);
        l1Engine_ = engines_[0].get();
    } else {
        svt_->vmResume();
        l1ViaSvt_ = true;
    }
}

void
VirtStack::leaveL1(L1Transport t, ExitReason why)
{
    if (t == L1Transport::Vmcs) {
        const CostModel &c = machine_.costs();
        machine_.consume(c.thunkRegSave * c.thunkRegs);
        engines_[0]->vmexit(ExitInfo{.reason = why});
    } else {
        // A thread stall/resume pair: squash + retarget to L0.
        svt_->vmTrap();
    }
    l1Engine_ = nullptr;
    l1ViaSvt_ = false;
}

bool
VirtStack::reflectToL1(const ExitInfo &info)
{
    if (config_.mode == VirtMode::SwSvt)
        maybeRepromoteSvt();
    // The L1 vCPU runs its housekeeping on its own thread while the
    // SVt-thread handles the exit; every other transport has one
    // effective thread of execution.
    serviceL1Housekeeping(transport(/*reflect=*/true) ==
                          L1Transport::Ring);
    const CostModel &c = machine_.costs();
    VmxEngine &e0 = *engines_[0];
    // A SW SVt handshake the watchdog tears down before L1 ran starts
    // the round over on the conventional path.
    for (;;) {
        const L1Transport t = transport(/*reflect=*/true);
        const bool ring = (t == L1Transport::Ring);
        ChannelMessage msg;
        {
            TimeScope l0(machine_, ScopeId::StageL0Handler);
            machine_.consume(c.handlerDispatch + c.nestedExitCheck);
            if (t == L1Transport::Vmcs) {
                e0.vmptrld(vmcs01_.get());
                // Lazily sync the trap context into the L1-visible
                // state: vmread-grade accesses of GPRs and exit-info
                // values.
                machine_.consume(c.lazySyncValue * c.lazySyncValues);
                vcpuL2InL1_->gprs() = vcpuL2InL0_->gprs();
            } else if (!ring) {
                e0.vmptrld(vmcs01_.get());
                svt_->loadFromVmcs(*vmcs01_);
                // Exit information lands in the L1-visible memory;
                // registers need no copying, unless L2 is about to be
                // displaced from a shared context: then the cheap
                // ctxtld reads must land in memory too.
                Ticks sync = 10 * c.vmcsFieldCopy;
                if (t == L1Transport::Mux) {
                    HwContext &ctx1 = core_.context(1);
                    sync += numGprs * (c.ctxtRegAccess + c.memAccess);
                    vcpuL2InL1_->gprs() = ctx1.readGprs();
                    vmcs12_->write(VmcsField::GuestRip, ctx1.rip);
                    vmcs12_->write(VmcsField::GuestRflags, ctx1.rflags);
                }
                machine_.consume(sync);
            }
            vmcs12_->recordExit(info);
            machine_.consume(c.nestedStateMachine);
            if (ring) {
                // CMD_VM_TRAP with the register payload (the prototype
                // has no cross-thread register file access).
                msg.command = SwSvtCommand::VmTrap;
                msg.info = info;
                msg.gprs = vcpuL2InL0_->gprs();
                ringToSvt_->post(msg);
            }
        }
        if (ring) {
            // The SVt-thread picks the command up, unless a Section
            // 5.3 stall or a lost doorbell degraded the stack first.
            serviceSvtThreadPreemption();
            if (svtDegraded_ ||
                !svtAwaitRing(*ringToSvt_, msg))
                continue;
            vcpuL2InL1_->gprs() = msg.gprs;
        } else {
            TimeScope sw(machine_, ScopeId::StageSwitchL0L1);
            svtSwitchOwner(1); // a no-op unless L1 and L2 share a context
            enterL1(t);
        }
        bool resume;
        {
            TimeScope l1(machine_, ScopeId::StageL1Handler);
            if (ring) {
                l1Engine_ = engines_[1].get();
                l1Slowdown_ = config_.channel.workerSlowdown(c);
            }
            resume = guestHv_->handleNestedExit(info, l1Backend_);
            if (ring) {
                l1Slowdown_ = 1.0;
                l1Engine_ = nullptr;
                // CMD_VM_RESUME with the updated register payload.
                msg.command = SwSvtCommand::VmResume;
                msg.l2Halted = !resume;
                msg.gprs = vcpuL2InL1_->gprs();
                ringFromSvt_->post(msg);
            }
        }
        if (!ring) {
            {
                // L1 issues VMRESUME (or halts): traps back into L0.
                TimeScope sw(machine_, ScopeId::StageSwitchL0L1);
                leaveL1(t, resume ? ExitReason::Vmresume
                                  : ExitReason::Hlt);
            }
            TimeScope l0(machine_, ScopeId::StageL0Handler);
            machine_.consume(c.handlerDispatch);
            if (resume)
                e0.vmptrld(vmcs02_.get());
        } else if (svtAwaitRing(*ringFromSvt_, msg)) {
            vcpuL2InL0_->gprs() = msg.gprs;
        } else {
            // The response is gone beyond retries, but the L1 handler
            // did run and vcpuL2InL1_ holds the updated registers:
            // sync them the conventional (vmread-grade) way. The
            // handler stage closes before the return transform, as on
            // every other path.
            TimeScope l0(machine_, ScopeId::StageL0Handler);
            machine_.consume(c.lazySyncValue * c.lazySyncValues);
            vcpuL2InL0_->gprs() = vcpuL2InL1_->gprs();
        }
        if (resume)
            transformVmcs12ToVmcs02();
        return resume;
    }
}

void
VirtStack::svtSwitchOwner(int level)
{
    simAssert(level == 1 || level == 2, "svtSwitchOwner level");
    if (!svtMultiplexed_ || svtCtx1Owner_ == level)
        return;
    const CostModel &c = machine_.costs();
    HwContext &ctx = core_.context(1);
    // Spill the displaced level's architectural state into its vCPU
    // struct, reload the incoming level's — the software context
    // switch SVt was designed to avoid, reintroduced by the capacity
    // limit (Section 3.1).
    Vcpu &out = (svtCtx1Owner_ == 2) ? *vcpuL2InL0_ : *vcpuL1_;
    out.gprs() = ctx.readGprs();
    out.rip = ctx.rip;
    out.rflags = ctx.rflags;
    machine_.consume(c.thunkRegSave * c.thunkRegs);
    Vcpu &in = (level == 2) ? *vcpuL2InL0_ : *vcpuL1_;
    ctx.writeGprs(in.gprs());
    ctx.rip = in.rip;
    ctx.rflags = in.rflags;
    machine_.consume(c.thunkRegRestore * c.thunkRegs);
    ctxMultiplexMetric_.inc();
    svtCtx1Owner_ = level;
}

void
VirtStack::serviceSvtThreadPreemption()
{
    if (pendingPreemption_ <= 0)
        return;
    Ticks duration = pendingPreemption_;
    pendingPreemption_ = 0;
    const CostModel &c = machine_.costs();
    preemptionMetric_.inc();

    // Section 5.3 scenario: a kernel thread in the sibling preempts
    // the SVt-thread and IPIs the L1 vCPU, spinning for the ack. The
    // IPI is a real cross-context delivery — it has latency, and a
    // fault plan can delay or drop it.
    core_.lapic(1).sendIpi(vcpuL1_->lapic(), vec::l1Ipi);

    if (!config_.svtBlockedFix) {
        if (!config_.svtWatchdog) {
            throw DeadlockError(
                "SW SVt interrupt deadlock (paper Section 5.3): the "
                "SVt-thread was preempted by a kernel thread that "
                "IPIs the L1 vCPU and waits, while L0 waits for "
                "CMD_VM_RESUME and never runs the L1 vCPU. Enable "
                "StackConfig::svtBlockedFix (or svtWatchdog for "
                "graceful degradation).");
        }
        // No SVT_BLOCKED fix, but the heartbeat watchdog notices the
        // stalled handshake: degrade, reschedule the L1 vCPU on the
        // now-free context (draining the IPI) and carry on.
        TimeScope t(machine_, ScopeId::StageSvtWatchdog);
        machine_.consume(svt_watchdog::timeout);
        svtFallback();
        vcpuL1_->lapic().raise(vec::l1Ipi);
        drainL1Ipis();
        machine_.consume(duration);
        return;
    }

    // The fix: while waiting for the response, L0 checks for pending
    // interrupts to the L1 vCPU and injects a synthetic SVT_BLOCKED
    // trap so the vCPU enables interrupts and drains them, then
    // yields straight back. First wait for the IPI to land (delivery
    // latency; a fault plan can delay or drop it).
    Ticks deadline = machine_.now() + (config_.svtWatchdog
                                           ? svt_watchdog::timeout
                                           : c.ipiLatency * 16);
    while (!vcpuL1_->lapic().hasPending() &&
           machine_.now() < deadline) {
        // idleUntil may return early under a cluster AdvanceGate, so
        // never break on its return — re-check the loop condition
        // (pending IPI / deadline) every time around.
        Ticks next = machine_.events().nextEventTime();
        machine_.idleUntil(std::min(next, deadline));
    }
    if (!vcpuL1_->lapic().hasPending()) {
        // The IPI never arrived: the spinner waits for an ack that
        // cannot come, so even the SVT_BLOCKED fix cannot make
        // progress (the fix assumes interrupt delivery works, and the
        // fault violated that assumption).
        if (!config_.svtWatchdog) {
            throw DeadlockError(
                "SW SVt interrupt deadlock (paper Section 5.3, IPI "
                "lost): the preempting kernel thread's IPI to the L1 "
                "vCPU was never delivered, so the SVT_BLOCKED fix has "
                "nothing to drain and the spinner waits forever. "
                "Enable StackConfig::svtWatchdog to degrade "
                "gracefully.");
        }
        svtFallback();
        // Watchdog recovery: L0 re-raises the vector directly (it
        // knows the kernel thread is spinning for the ack).
        vcpuL1_->lapic().raise(vec::l1Ipi);
        drainL1Ipis();
        machine_.consume(duration);
        return;
    }

    svtBlockedMetric_.inc();
    machine_.consume(c.injectPrepare);
    drainL1Ipis();
    // With the IPI acked, the preempting thread finishes its work and
    // the SVt-thread gets the CPU back.
    machine_.consume(duration);
}

void
VirtStack::drainL1Ipis()
{
    enterL1Window();
    ackAndHandleIrqs(vcpuL1_->lapic(), 1);
    leaveL1Window();
}

// -------------------------------------------- SW SVt heartbeat watchdog

bool
VirtStack::svtAwaitRing(CommandRing &ring, ChannelMessage &msg)
{
    bool arrived = ring.hasMessage();
    if (!arrived) {
        if (!config_.svtWatchdog) {
            throw DeadlockError(
                "SW SVt handshake hang: no command ever arrived on " +
                ring.name() +
                " (a lost doorbell with no watchdog stalls the "
                "L0<->SVt-thread handshake forever, the Section 5.3 "
                "failure mode); enable StackConfig::svtWatchdog to "
                "degrade gracefully");
        }
        TimeScope t(machine_, ScopeId::StageSvtWatchdog);
        for (int attempt = 1;
             attempt <= svt_watchdog::maxRetries && !arrived; ++attempt) {
            // The heartbeat deadline passes; retry by re-ringing the
            // doorbell, with linear backoff between attempts.
            machine_.consume(svt_watchdog::timeout +
                             static_cast<Ticks>(attempt - 1) *
                                 svt_watchdog::backoff);
            svtWatchdogRetryMetric_.inc();
            SVTSIM_TRACE_INSTANT(machine_.traceSink(),
                                 TraceCategory::Channel,
                                 "svt.watchdog.retry");
            arrived = ring.post(msg) && ring.hasMessage();
        }
    }
    if (!arrived) {
        svtFallback();
        return false;
    }
    // The receiver observes the command (monitor/mwait wake) and
    // reads the payload; the ring pop consumes time and must stay
    // inside the channel stage or its ticks go unattributed.
    TimeScope ch(machine_, ScopeId::StageChannel);
    ring.consumeWake(config_.channel);
    msg = ring.pop();
    return true;
}

void
VirtStack::svtFallback()
{
    // Tear the handshake down: discard ring state, reroute exits to
    // the conventional nested trap path and start the quiet period.
    ringToSvt_->clear();
    ringFromSvt_->clear();
    svtDegraded_ = true;
    svtRepromoteAt_ = machine_.now() + svt_watchdog::quietPeriod;
    svtFallbackMetric_.inc();
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Svt,
                         "svt.fallback");
}

void
VirtStack::maybeRepromoteSvt()
{
    if (!svtDegraded_ || machine_.now() < svtRepromoteAt_)
        return;
    // The quiet period elapsed without further trouble: re-arm the
    // SW SVt handshake.
    svtDegraded_ = false;
    svtRepromoteMetric_.inc();
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Svt,
                         "svt.repromote");
}

// ------------------------------------------ L1-grade single-level traps

HwContext &
VirtStack::l1Context()
{
    if (l1ViaSvt_)
        return core_.context(1);
    simAssert(l1Engine_ != nullptr,
              "L1 code executing without an execution window");
    return l1Engine_->context();
}

void
VirtStack::l1TrapRound(const ExitInfo &info)
{
    const CostModel &c = machine_.costs();
    HwContext &ctx = l1Context();
    // On a VMX engine: exit microcode plus the thunk's register
    // spill. On an SVt context: squash + retarget to the visor
    // context, no state movement; L0 pulls the registers it needs
    // with ctxtld (is_vm==0, lvl 1 -> SVt_vm, i.e. L1's context).
    VmxEngine *engine = l1ViaSvt_ ? nullptr : l1Engine_;
    const Ticks round_start = machine_.now();
    if (engine) {
        engine->vmexit(info);
        machine_.consume(c.thunkRegSave * c.thunkRegs);
    } else {
        svt_->vmTrap();
        machine_.consume(4 * c.ctxtRegAccess);
    }
    vcpuL1_->gprs() = ctx.readGprs();
    handleL0Exit(info, engine);
    if (engine)
        engine->vmentry(false);
    else
        machine_.consume(4 * c.ctxtRegAccess);
    ctx.writeGprs(vcpuL1_->gprs());
    if (engine)
        machine_.consume(c.thunkRegRestore * c.thunkRegs);
    else
        svt_->vmResume();
    l0ExitMetric_[static_cast<std::size_t>(info.reason)].latency.record(
        machine_.now() - round_start);
}

void
VirtStack::handleL0Exit(const ExitInfo &info, VmxEngine *engine)
{
    const CostModel &c = machine_.costs();
    machine_.consume(c.handlerDispatch);
    l0ExitMetric_[static_cast<std::size_t>(info.reason)].count.inc();

    switch (info.reason) {
      case ExitReason::Cpuid: {
        machine_.consume(c.emulCpuid);
        CpuidResult r = l0CpuidView_.query(vcpuL1_->gpr(Gpr::Rax));
        vcpuL1_->setGpr(Gpr::Rax, r.eax);
        vcpuL1_->setGpr(Gpr::Rbx, r.ebx);
        vcpuL1_->setGpr(Gpr::Rcx, r.ecx);
        vcpuL1_->setGpr(Gpr::Rdx, r.edx);
        break;
      }
      case ExitReason::Rdmsr: {
        machine_.consume(c.emulMsr);
        std::uint64_t value = l0Msrs_.read(
            static_cast<std::uint32_t>(vcpuL1_->gpr(Gpr::Rcx)));
        vcpuL1_->setGpr(Gpr::Rax, msrLow(value));
        vcpuL1_->setGpr(Gpr::Rdx, msrHigh(value));
        break;
      }
      case ExitReason::Wrmsr:
        machine_.consume(c.emulMsr);
        l0Msrs_.write(static_cast<std::uint32_t>(vcpuL1_->gpr(Gpr::Rcx)),
                      msrJoin(vcpuL1_->gpr(Gpr::Rdx),
                              vcpuL1_->gpr(Gpr::Rax)),
                      vcpuL1_->lapic(), vec::l1Timer);
        break;
      case ExitReason::Vmread:
        machine_.consume(c.emulVmcsAccess + c.vmcsFieldCopy);
        vcpuL1_->setGpr(Gpr::Rax,
                        vmcs12_->read(static_cast<VmcsField>(info.field)));
        break;
      case ExitReason::Vmwrite:
        machine_.consume(c.emulVmcsAccess + c.vmcsFieldCopy);
        vmcs12_->write(static_cast<VmcsField>(info.field), info.value);
        break;
      case ExitReason::Vmcall:
        // L0 models no hypercalls: an L1 vmcall returns ~0.
        vcpuL1_->setGpr(Gpr::Rax, ~0ULL);
        break;
      case ExitReason::IoInstruction: {
        // L0 emulates no devices for L1: every port floats.
        machine_.consume(c.emulMsr);
        const bool is_write = info.qualification & 1;
        if (!is_write)
            vcpuL1_->setGpr(Gpr::Rax, ~0ULL);
        break;
      }
      default:
        panic("handleL0Exit: unhandled L1 exit %s",
              exitReasonName(info.reason));
    }
    // Skip the emulated instruction.
    std::uint64_t rip = 0;
    if (engine) {
        rip = engine->vmread(VmcsField::GuestRip);
        engine->vmwrite(VmcsField::GuestRip, rip + info.instrLength);
    } else {
        svt_->ctxtld(1, SvtSpecialReg::Rip, rip);
        svt_->ctxtst(1, SvtSpecialReg::Rip, rip + info.instrLength);
    }
}

// ----------------------------------------------------------- L1 windows

void
VirtStack::enterL1Window()
{
    simAssert(!inL1Window_, "enterL1Window: window already open");
    simAssert(!l2Running_, "enterL1Window while L2 runs");
    const CostModel &c = machine_.costs();
    VmxEngine &e0 = *engines_[0];
    if (e0.currentVmcs() != vmcs01_.get())
        e0.vmptrld(vmcs01_.get());
    machine_.consume(c.injectPrepare);
    const L1Transport t = transport(/*reflect=*/false);
    if (t == L1Transport::Vmcs) {
        e0.vmwrite(VmcsField::EntryIntrInfo, 1);
    } else {
        svtSwitchOwner(1);
        svt_->loadFromVmcs(*vmcs01_);
    }
    enterL1(t);
    inL1Window_ = true;
}

void
VirtStack::leaveL1Window()
{
    simAssert(inL1Window_, "leaveL1Window without a window");
    const L1Transport t = transport(/*reflect=*/false);
    leaveL1(t, ExitReason::Hlt);
    if (t == L1Transport::Vmcs)
        machine_.consume(machine_.costs().handlerDispatch);
    inL1Window_ = false;
}

int
VirtStack::maybeInjectAndResumeL2(bool l2_was_running)
{
    simAssert(inL1Window_, "maybeInjectAndResumeL2 without L1 window");
    const CostModel &c = machine_.costs();
    if (!vcpuL2InL1_->lapic().hasPending()) {
        leaveL1Window();
        if (l2_was_running && !l2Running_)
            resumeL2();
        return 0;
    }

    int v = vcpuL2InL1_->lapic().ack();
    machine_.consume(c.injectPrepare);
    // L1 fills the VM-entry interruption field of vmcs01' and updates
    // the interrupt-window / pending-event controls around it. None
    // of these fields are shadowable, so in the baseline each access
    // traps to L0.
    for (int i = 0; i < c.l1InjectExtraVmcsTraps; ++i)
        l1Backend_.vmcsWrite(VmcsField::EntryIntrInfo, 0);
    l1Backend_.vmcsWrite(VmcsField::EntryIntrInfo,
                         static_cast<std::uint64_t>(v) | 0x80000000ULL);
    // L1 resumes L2: trap to L0 (Algorithm 1 line 12), then the
    // return transform and the real entry.
    leaveL1(transport(/*reflect=*/false), ExitReason::Vmresume);
    inL1Window_ = false;
    machine_.consume(c.handlerDispatch);
    transformVmcs12ToVmcs02();
    resumeL2();
    machine_.consume(c.interruptDeliver);
    l2DeliveredVector_ = v;
    runIrqHandler(2, v);
    if (config_.postedInterrupts) {
        // x2APIC virtualization (exit-elision rung 1): the EOI write
        // is satisfied from the virtual-APIC page even on the
        // injection path, so the reflected Wrmsr round below never
        // happens.
        machine_.consume(c.virtApicEoi);
        elidedEoiMetric_.inc();
        return 1;
    }
    // L2 signals EOI through the x2APIC MSR. APIC virtualization is
    // not available to nested guests, so this is a full reflected
    // exit (part of why interrupt-heavy I/O suffers so much in the
    // baseline, Section 6.2).
    machine_.consume(c.eoiWrite);
    const GuestTrap eoi = GuestTrap::wrmsr(msr::ia32X2apicEoi, 0);
    eoi.loadOperands(l2Context());
    nestedExitFromL2(eoi.info);
    return 1;
}

bool
VirtStack::interruptsPending() const
{
    const Lapic &l2 = vcpuL2InL1_->lapic();
    return core_.lapic(0).hasPending() || vcpuL1_->lapic().hasPending() ||
           l2.hasPending() || l2.hasPosted();
}

void
VirtStack::computeInSlices(Ticks t, bool stageL2)
{
    // Chunked so device interrupts stay responsive during long
    // computations (frame decode, request processing). Only an event
    // can make a vector pending, and events fire inside consume(), so
    // while no LAPIC holds one, every pump before the slice boundary
    // that reaches the next event would find nothing: those slices run
    // as one step. The step also stops below the cluster horizon, past
    // which packets merged at the barrier can add events. Events, the
    // clock and every pump that can deliver stay where they were.
    const Ticks slice = usec(10);
    while (t > 0) {
        Ticks step = std::min(t, slice);
        if (t > slice && !interruptsPending()) {
            EventQueue &eq = machine_.events();
            const Ticks limit =
                std::min(eq.nextEventTime(), eq.horizon() - 1);
            const Ticks reach = (limit - eq.now()) / slice * slice;
            step = std::min(t, std::max(reach, slice));
        }
        if (stageL2) {
            TimeScope s(machine_, ScopeId::StageL2);
            machine_.consume(step);
        } else {
            machine_.consume(step);
        }
        t -= step;
        pumpInterrupts();
    }
}

// ------------------------------------------------------- VirtualizedApi

void
GuestTrap::loadOperands(HwContext &ctx) const
{
    for (int i = 0; i < numOperands; ++i)
        ctx.writeGpr(operands[i].reg, operands[i].value);
}

GuestTrap
GuestTrap::wrmsr(std::uint32_t index, std::uint64_t value)
{
    return {.info = {.reason = ExitReason::Wrmsr,
                     .instrLength = 2,
                     .value = value},
            .operands = {{{Gpr::Rcx, index},
                          {Gpr::Rax, msrLow(value)},
                          {Gpr::Rdx, msrHigh(value)}}},
            .numOperands = 3,
            .regOps = 3};
}

namespace {

/** A 4-byte `out` (@p write) or `in` on @p port: the qualification
 *  carries the port, the access size and the direction. */
GuestTrap
portIo(std::uint16_t port, std::uint64_t value, bool write)
{
    return {.info = {.reason = ExitReason::IoInstruction,
                     .qualification = std::uint64_t{port} << 16 |
                                      4ULL << 1 | (write ? 1 : 0),
                     .instrLength = 2,
                     .value = value},
            .regOps = 1};
}

} // namespace

CpuidResult
VirtualizedApi::cpuid(std::uint64_t leaf)
{
    issue({.info = {.reason = ExitReason::Cpuid, .instrLength = 2},
           .operands = {{{Gpr::Rax, leaf}}},
           .numOperands = 1,
           .exec = stack_.machine().costs().cpuidExec});
    const HwContext &x = ctx();
    return CpuidResult{x.readGpr(Gpr::Rax), x.readGpr(Gpr::Rbx),
                       x.readGpr(Gpr::Rcx), x.readGpr(Gpr::Rdx)};
}

std::uint64_t
VirtualizedApi::rdmsr(std::uint32_t index)
{
    if (!issue({.info = {.reason = ExitReason::Rdmsr, .instrLength = 2},
                .operands = {{{Gpr::Rcx, index}}},
                .numOperands = 1,
                .regOps = 1}))
        return ctx().rdmsr(index);
    return msrJoin(ctx().readGpr(Gpr::Rdx), ctx().readGpr(Gpr::Rax));
}

void
VirtualizedApi::wrmsr(std::uint32_t index, std::uint64_t value)
{
    if (!issue(GuestTrap::wrmsr(index, value)))
        ctx().wrmsr(index, value);
}

void
VirtualizedApi::ioOut(std::uint16_t port, std::uint64_t value)
{
    issue(portIo(port, value, /*write=*/true));
}

std::uint64_t
VirtualizedApi::ioIn(std::uint16_t port)
{
    issue(portIo(port, 0, /*write=*/false));
    return ctx().readGpr(Gpr::Rax);
}

std::uint64_t
VirtualizedApi::vmcall(std::uint64_t nr, std::uint64_t a0,
                       std::uint64_t a1)
{
    issue({.info = {.reason = ExitReason::Vmcall, .instrLength = 3},
           .operands = {{{Gpr::Rax, nr}, {Gpr::Rbx, a0}, {Gpr::Rcx, a1}}},
           .numOperands = 3,
           .regOps = 3});
    return ctx().readGpr(Gpr::Rax);
}

// ----------------------------------------------------------------- L1Api

void
L1Api::compute(Ticks t)
{
    if (stack_.config_.mode == VirtMode::Single) {
        stack_.computeInSlices(t, /*stageL2=*/false);
        return;
    }
    stack_.machine_.consume(
        static_cast<Ticks>(static_cast<double>(t) *
                           stack_.l1Slowdown_));
}

bool
L1Api::issue(const GuestTrap &t)
{
    // A single-level guest takes pending interrupts before each
    // trapping instruction. L1 pays no setup cost beyond the
    // instruction's own, and L0 intercepts every MSR it touches.
    if (stack_.config_.mode == VirtMode::Single)
        stack_.pumpInterrupts();
    stack_.machine_.consume(t.exec);
    t.loadOperands(ctx());
    stack_.l1TrapRound(t.info);
    return true;
}

int
L1Api::halt()
{
    simAssert(stack_.config_.mode == VirtMode::Single,
              "L1Api::halt outside Single mode");
    const CostModel &c = stack_.machine_.costs();
    VmxEngine &e0 = *stack_.engines_[0];
    stack_.machine_.consume(c.thunkRegSave * c.thunkRegs);
    e0.vmexit(ExitInfo{.reason = ExitReason::Hlt, .instrLength = 1});
    stack_.singleGuestRunning_ = false;
    stack_.machine_.consume(c.handlerDispatch);
    stack_.l2DeliveredVector_ = -1;
    return waitForInterrupt("L1Api");
}

// ----------------------------------------------------------------- L2Api

void
L2Api::compute(Ticks t)
{
    simAssert(isNestedMode(stack_.config_.mode),
              "L2Api outside nested mode");
    stack_.computeInSlices(t, /*stageL2=*/true);
}

bool
L2Api::issue(const GuestTrap &t)
{
    simAssert(isNestedMode(stack_.config_.mode),
              "L2Api outside nested mode");
    stack_.pumpInterrupts();
    Machine &m = stack_.machine_;
    // An MSR access loads the index into Rcx first. Where the combined
    // MSR bitmaps permit direct access, it runs without an exit.
    const bool msr = t.info.reason == ExitReason::Rdmsr ||
                     t.info.reason == ExitReason::Wrmsr;
    if (msr && stack_.guestHv_->msrPassthrough(
                   static_cast<std::uint32_t>(t.operands[0].value))) {
        m.consume(m.costs().msrNative);
        return false;
    }
    {
        TimeScope s(m, ScopeId::StageL2);
        m.consume(t.exec + t.regOps * m.costs().regOp);
        t.loadOperands(ctx());
    }
    stack_.nestedExitFromL2(t.info);
    return true;
}

Ept::Result
L2Api::resolveGpa(Gpa addr, EptAccess access)
{
    for (int tries = 0; tries < 4; ++tries) {
        auto r = stack_.ept02_->translate(addr, access);
        if (r.kind != Ept::Result::Kind::Violation)
            return r;
        ExitInfo info;
        info.reason = ExitReason::EptViolation;
        info.qualification = (access == EptAccess::Write) ? 1 : 0;
        info.guestPhysAddr = addr;
        stack_.nestedExitFromL2(info);
    }
    panic("L2 gpa %#llx failed to resolve",
          static_cast<unsigned long long>(addr));
}

std::uint64_t
L2Api::mmioRead(Gpa addr, int size)
{
    stack_.pumpInterrupts();
    auto r = resolveGpa(addr, EptAccess::Read);
    if (r.kind == Ept::Result::Kind::Ok) {
        stack_.machine_.consume(stack_.machine_.costs().memAccess);
        return 0;
    }
    ExitInfo info;
    info.reason = ExitReason::EptMisconfig;
    info.qualification = static_cast<std::uint64_t>(size) << 1;
    info.guestPhysAddr = addr;
    info.instrLength = 3;
    stack_.nestedExitFromL2(info);
    return ctx().readGpr(Gpr::Rax);
}

void
L2Api::mmioWrite(Gpa addr, int size, std::uint64_t value)
{
    stack_.pumpInterrupts();
    auto r = resolveGpa(addr, EptAccess::Write);
    if (r.kind == Ept::Result::Kind::Ok) {
        stack_.machine_.consume(stack_.machine_.costs().memAccess);
        return;
    }
    ExitInfo info;
    info.reason = ExitReason::EptMisconfig;
    info.qualification = 1 | static_cast<std::uint64_t>(size) << 1;
    info.guestPhysAddr = addr;
    info.instrLength = 3;
    info.value = value;
    stack_.nestedExitFromL2(info);
}

int
L2Api::halt()
{
    if (int v = pollInterrupt(); v >= 0)
        return v;
    {
        TimeScope s(stack_.machine_, ScopeId::StageL2);
        stack_.machine_.consume(stack_.machine_.costs().regOp);
    }
    stack_.nestedExitFromL2(
        ExitInfo{.reason = ExitReason::Hlt, .instrLength = 1});
    return waitForInterrupt("L2Api");
}

// ------------------------------------------------------------- L1Backend

namespace {

/** The VMCS fields a dedicated SVt context holds as special registers
 *  (reached with ctxtld/ctxtst rather than through vmcs12). */
bool
isSvtSpecialField(VmcsField field)
{
    return field == VmcsField::GuestRip ||
           field == VmcsField::GuestRflags;
}

SvtSpecialReg
svtSpecialReg(VmcsField field)
{
    return field == VmcsField::GuestRip ? SvtSpecialReg::Rip
                                        : SvtSpecialReg::Rflags;
}

} // namespace

bool
L1Backend::l2InContext() const
{
    // HW SVt with a dedicated L2 context: L2's registers never left
    // the hardware. Everywhere else L0 synced them into (or spilled
    // them to) the in-memory vCPU struct.
    return stack_.transport(/*reflect=*/false) ==
           VirtStack::L1Transport::Ctxt;
}

bool
L1Backend::shadowed(VmcsField field, std::uint64_t &value, bool write)
{
    // L1 runs on a VMX engine unless it runs on an SVt context.
    if (stack_.transport(/*reflect=*/false) ==
        VirtStack::L1Transport::Vmcs) {
        VmxEngine *e = stack_.l1Engine_;
        simAssert(e != nullptr && e->inGuest(),
                  "L1 VMCS access outside an execution window");
        return e->guestVmcsAccess(field, value, write);
    }
    if (!stack_.config_.hwVmcsShadowing || !vmcsFieldShadows(field, write))
        return false;
    stack_.machine_.consume(costs().vmShadowAccess);
    if (write)
        stack_.vmcs12_->write(field, value);
    else
        value = stack_.vmcs12_->read(field);
    return true;
}

std::uint64_t
L1Backend::vmcsRead(VmcsField field)
{
    std::uint64_t value = 0;
    if (l2InContext() && isSvtSpecialField(field)) {
        auto a = stack_.svt_->ctxtld(1, svtSpecialReg(field), value);
        simAssert(a == SvtUnit::Access::Ok, "ctxtld trap unexpected");
        return value;
    }
    if (shadowed(field, value, /*write=*/false))
        return value;
    stack_.l1TrapRound(
        ExitInfo{.reason = ExitReason::Vmread,
                 .instrLength = 3,
                 .field = static_cast<std::uint64_t>(field)});
    return stack_.l1Context().readGpr(Gpr::Rax);
}

void
L1Backend::vmcsWrite(VmcsField field, std::uint64_t value)
{
    if (l2InContext() && isSvtSpecialField(field)) {
        auto a = stack_.svt_->ctxtst(1, svtSpecialReg(field), value);
        simAssert(a == SvtUnit::Access::Ok, "ctxtst trap unexpected");
        stack_.vmcs12_->write(field, value);
        return;
    }
    if (shadowed(field, value, /*write=*/true))
        return;
    stack_.l1TrapRound(
        ExitInfo{.reason = ExitReason::Vmwrite,
                 .instrLength = 3,
                 .field = static_cast<std::uint64_t>(field),
                 .value = value});
}

std::uint64_t
L1Backend::l2Gpr(Gpr reg)
{
    if (l2InContext()) {
        std::uint64_t value = 0;
        auto a = stack_.svt_->ctxtld(1, reg, value);
        simAssert(a == SvtUnit::Access::Ok, "ctxtld trap unexpected");
        return value;
    }
    stack_.machine_.consume(costs().memAccess);
    return stack_.vcpuL2InL1_->gpr(reg);
}

void
L1Backend::setL2Gpr(Gpr reg, std::uint64_t value)
{
    if (l2InContext()) {
        auto a = stack_.svt_->ctxtst(1, reg, value);
        simAssert(a == SvtUnit::Access::Ok, "ctxtst trap unexpected");
        return;
    }
    stack_.machine_.consume(costs().memAccess);
    stack_.vcpuL2InL1_->setGpr(reg, value);
}

void
L1Backend::compute(Ticks t)
{
    l1Api().compute(t);
}

GuestApi &
L1Backend::l1Api()
{
    return *stack_.l1Api_;
}

const CostModel &
L1Backend::costs() const
{
    return stack_.machine_.costs();
}

} // namespace svtsim
