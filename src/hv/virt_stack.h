/**
 * @file
 * VirtStack: the assembled virtualization stack.
 *
 * One object wires together the host hypervisor (L0), the guest
 * hypervisor (L1), the VMX engines, EPTs, virtual APICs, the SVt
 * hardware unit (HW SVt) or the command channels (SW SVt), and exposes
 * GuestApi implementations for running workloads at the configured
 * top level. The same workload program produces identical
 * architectural results in every mode; only the modeled time differs.
 */

#ifndef SVTSIM_HV_VIRT_STACK_H
#define SVTSIM_HV_VIRT_STACK_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "arch/machine.h"
#include "hv/channel.h"
#include "hv/cpuid_db.h"
#include "hv/guest_api.h"
#include "hv/guest_hypervisor.h"
#include "hv/stack_config.h"
#include "hv/vcpu.h"
#include "sim/log.h"
#include "svt/svt_unit.h"
#include "virt/ept.h"
#include "virt/vmx.h"

namespace svtsim {

/** Raised when the Section 5.3 interrupt deadlock manifests (only
 *  possible with StackConfig::svtBlockedFix disabled). */
class DeadlockError : public SimError
{
  public:
    explicit DeadlockError(const std::string &what) : SimError(what) {}
};

/**
 * The assembled stack. See DESIGN.md section 3 for the execution
 * model: guest code runs synchronously; sensitive operations walk the
 * real trap paths; asynchronous device events are pumped at
 * instruction boundaries.
 */
class VirtStack
{
  public:
    VirtStack(Machine &machine, StackConfig config);
    ~VirtStack();

    VirtStack(const VirtStack &) = delete;
    VirtStack &operator=(const VirtStack &) = delete;

    Machine &machine() { return machine_; }
    const StackConfig &config() const { return config_; }

    /** The GuestApi of the configured top level (L0/L1/L2). */
    GuestApi &api();

    /** GuestApi of a specific level (0, 1 or 2 where applicable). */
    GuestApi &apiAt(int level);

    /** Run @p program at the top level. */
    void run(const GuestProgram &program);

    /** The guest (L1) hypervisor, for registering L2 devices. */
    GuestHypervisor &l1Hv() { return *guestHv_; }

    // -- Device plumbing ---------------------------------------------------
    /** A physical device interrupt arriving at L0. */
    void raiseHostIrq(std::uint8_t vector);

    /** Raise a virtual interrupt for L1 (L0-side device backends). */
    void raiseL1Irq(std::uint8_t vector);

    /** Raise a virtual interrupt for L2 (L1-side device backends). */
    void raiseL2Irq(std::uint8_t vector);

    /** Register the interrupt handler for @p vector at @p level. */
    void setIrqHandler(int level, std::uint8_t vector,
                       std::function<void()> handler);

    /**
     * Deliver every deliverable pending interrupt now.
     * @return Number of interrupts delivered (at any level).
     */
    int pumpInterrupts();

    // -- SW SVt test/fault-injection hooks ----------------------------------
    /**
     * Arm the Section 5.3 scenario: during the next SVt-thread command,
     * a kernel thread preempts the SVt-thread for @p duration and IPIs
     * the L1 vCPU, waiting for the ack.
     */
    void armSvtThreadPreemption(Ticks duration);

    // -- L1 housekeeping interference (Section 6.3.1) -----------------------
    /**
     * Post one unit of L1-kernel housekeeping (scheduler tick, RCU
     * callback, vhost bookkeeping) of cost @p cost. In the baseline
     * and HW SVt (one effective thread) it is serviced serially before
     * the next L2 exit is handled; in SW SVt the L1 vCPU drains it on
     * its own hardware thread while the SVt-thread handles the exit,
     * so it overlaps (the paper's "less noisy" latency effect). The
     * overlap assumption holds when @p cost is below the exit-handling
     * time; keep individual units small.
     */
    void postL1Housekeeping(Ticks cost);

    // -- Introspection -------------------------------------------------------
    /** SW SVt: whether the watchdog degraded the stack onto the
     *  conventional nested trap path (until the quiet period ends). */
    bool svtDegraded() const { return svtDegraded_; }

    /** Hardware context running L2 guest register state. */
    HwContext &l2Context();

    /** Register caches: L0's vcpu structs for L1 and for L2, and L1's
     *  for L2 (nested modes). */
    const Vcpu &vcpuL1() const { return *vcpuL1_; }
    const Vcpu &vcpuL2InL0() const { return *vcpuL2InL0_; }
    const Vcpu &vcpuL2InL1() const { return *vcpuL2InL1_; }

    Vmcs &vmcs01() { return *vmcs01_; }
    Vmcs &vmcs12() { return *vmcs12_; }
    Vmcs &vmcs02() { return *vmcs02_; }
    Ept &ept02() { return *ept02_; }
    SvtUnit &svtUnit() { return *svt_; }

  private:
    friend class LevelApiBase;
    friend class NativeApi;
    friend class L1Api;
    friend class L2Api;
    friend class L1Backend;

    // -- Construction helpers ---------------------------------------------
    void setupCommon();
    void setupSingle();
    void setupNested();

    // -- L2 trap machinery (Algorithm 1) -------------------------------------
    /** Full nested exit round: trap, reflect, handle in L1, resume. */
    void nestedExitFromL2(const ExitInfo &info);

    /** Stage 1/9: the L2<->L0 boundary. */
    void exitFromL2(const ExitInfo &info);
    void resumeL2();

    /** Stage 3/8: VMCS transformation passes (Section 2.2). */
    void transformVmcs02ToVmcs12();
    void transformVmcs12ToVmcs02();
    Ticks transformPassCost() const;

    /**
     * How L2/L1 state and control move between L0 and L1 (the
     * paper's Table 3): the only part of the nested trap round that
     * differs between the baseline, SW SVt and HW SVt.
     */
    enum class L1Transport
    {
        Vmcs, ///< VMCS memory plus thunk register copies (baseline)
        Ring, ///< SW SVt command rings to the SVt-thread
        Ctxt, ///< HW SVt, a context per level: ctxtld/ctxtst
        Mux,  ///< HW SVt with L1 and L2 sharing one context
    };

    /** The transport of a trap reflected to L1 (@p reflect) or of an
     *  L1 vCPU window. SW SVt's rings carry reflected traps only, and
     *  only while the watchdog has not degraded the stack. */
    L1Transport transport(bool reflect) const;

    /** Stages 4-8 of Algorithm 1, written once for every transport:
     *  l0_handler, switch_l0_l1, l1_handler, switch_l0_l1, l0_handler,
     *  transform. @return False if L2 halted instead of resuming. */
    bool reflectToL1(const ExitInfo &info);

    /** L0 resumes L1, and L1 traps back to L0, over a vCPU transport
     *  (any but Ring). */
    void enterL1(L1Transport t);
    void leaveL1(L1Transport t, ExitReason why);

    /**
     * Context multiplexing (Section 3.1): on a core with fewer
     * hardware contexts than virtualization levels, L1 and L2 share
     * a context; switching levels spills/reloads the architectural
     * state through the hypervisor's vCPU structs.
     *
     * @param level 1 or 2: which level must own the shared context.
     */
    void svtSwitchOwner(int level);

    /** SW SVt: handle a pending preemption + IPI against the
     *  SVt-thread (Section 5.3), consuming the preemption window. */
    void serviceSvtThreadPreemption();

    // -- SW SVt watchdog (graceful degradation) --------------------------
    /**
     * Wait for the message on @p ring under the heartbeat watchdog,
     * then receive it into @p msg in the channel stage. Each missed
     * deadline re-posts @p msg (re-ringing the doorbell) with linear
     * backoff. Without the watchdog a missed message raises
     * DeadlockError (the Section 5.3 hang).
     *
     * @return True when the message arrived; false when retries were
     *         exhausted and the stack degraded (svtFallback()).
     */
    bool svtAwaitRing(CommandRing &ring, ChannelMessage &msg);

    /** Degrade from SW SVt to the conventional nested trap path:
     *  reset the rings, start the quiet period, bump svt.fallback and
     *  emit its trace instant. */
    void svtFallback();

    /** Re-promote to SW SVt once the quiet period has elapsed. */
    void maybeRepromoteSvt();

    /** Deliver every pending L1 vector through an L1 window (the
     *  SVT_BLOCKED drain loop of Section 5.3). */
    void drainL1Ipis();

    // -- L1's own exits (single-level rounds) ---------------------------------
    /** Hardware context L1 code currently executes on. */
    HwContext &l1Context();

    /**
     * One complete single-level trap round for L1 code: exit from
     * wherever L1 runs (a VMX engine or an SVt context), dispatch in
     * L0, resume. Returns the emulation result where applicable
     * (rdmsr, mmio read, vmcall).
     */
    std::uint64_t l1TrapRound(const ExitInfo &info);

    /** Dispatch of an L1-grade exit inside L0. @p engine is the VMX
     *  engine the exit occurred on, or null for the SVt path. */
    std::uint64_t handleL0Exit(const ExitInfo &info, VmxEngine *engine);

    // -- Interrupt delivery ----------------------------------------------------
    int deliverL1Irqs();

    /** Enter/leave an L1 execution window from L0 control. */
    void enterL1Window();
    void leaveL1Window();

    /**
     * After an L1 window: inject pending L2 vectors (running the L2
     * handlers) and/or resume L2 if it was running before the window.
     * @return Number of vectors delivered to L2.
     */
    int maybeInjectAndResumeL2(bool l2_was_running);

    /**
     * Posted-interrupt delivery into a *running* L2: sync the PIR into
     * the IRR and run the L2 handlers without a nested exit (the
     * notification microcode path). Requires l2Running_.
     * @return Number of vectors delivered.
     */
    int deliverPostedToL2();

    void runIrqHandler(int level, int vector);

    /**
     * Ack every vector pending in @p apic and run @p level's handler
     * for each, paying the delivery and the EOI write. @p last, if
     * given, receives the last vector delivered.
     * @return Number of vectors delivered.
     */
    int ackAndHandleIrqs(Lapic &apic, int level, int *last = nullptr);

    /** Single-level (mode Single) interrupt delivery. */
    int pumpSingle();
    int pumpNative();

    /** Whether any LAPIC that pumpInterrupts() reads holds a pending
     *  or posted vector. */
    bool interruptsPending() const;

    /**
     * Guest compute of @p t ticks in 10 us slices with a pump after
     * each, inside a `stage.l2` scope per step when @p stageL2. Slices
     * whose pumps would find nothing are merged (see nested_flow.cc).
     */
    void computeInSlices(Ticks t, bool stageL2);

    // -- Members -----------------------------------------------------------------
    Machine &machine_;
    StackConfig config_;
    SmtCore &core_;

    std::vector<std::unique_ptr<VmxEngine>> engines_;
    std::unique_ptr<SvtUnit> svt_;

    std::unique_ptr<Vmcs> vmcs01_;  ///< L0's descriptor of L1.
    std::unique_ptr<Vmcs> vmcs12_;  ///< Shadow of L1's vmcs01'.
    std::unique_ptr<Vmcs> vmcs02_;  ///< L0's descriptor of L2.
    std::unique_ptr<Vmcs> vmcs01s_; ///< SW SVt: sibling vCPU of L1.

    std::unique_ptr<Ept> ept02_; ///< L0's merged EPT for L2.

    std::unique_ptr<Vcpu> vcpuL1_;     ///< L0's vcpu struct for L1.
    std::unique_ptr<Vcpu> vcpuL2InL0_; ///< L0's vcpu struct for L2.
    std::unique_ptr<Vcpu> vcpuL2InL1_; ///< L1's vcpu struct for L2.

    std::unique_ptr<GuestHypervisor> guestHv_;
    CpuidDb l0CpuidView_; ///< what L0 exposes to its guest.

    std::unique_ptr<class NativeApi> nativeApi_;
    std::unique_ptr<class L1Api> l1Api_;
    std::unique_ptr<class L2Api> l2Api_;
    L1Backend l1Backend_{*this};

    std::unique_ptr<CommandRing> ringToSvt_;
    std::unique_ptr<CommandRing> ringFromSvt_;

    std::array<std::map<std::uint8_t, std::function<void()>>, 3>
        irqHandlers_;

    /** L0's emulated MSR state for L1. */
    std::map<std::uint32_t, std::uint64_t> l0Msrs_;

    /** Armed Section 5.3 preemption scenario. */
    Ticks pendingPreemption_ = 0;

    /** Watchdog degradation state: while true, SW SVt exits route
     *  through the conventional path. */
    bool svtDegraded_ = false;
    /** When the degraded stack may re-promote to SW SVt. */
    Ticks svtRepromoteAt_ = 0;

    /** Accumulated L1 housekeeping work not yet serviced. */
    Ticks l1Housekeeping_ = 0;

    /** Service pending housekeeping per the mode's concurrency. */
    void serviceL1Housekeeping(bool overlapped);

    // -- Execution bookkeeping -------------------------------------------
    /** Whether the L2 guest is logically executing. */
    bool l2Running_ = false;
    /** Whether the Single-mode guest is logically executing. */
    bool singleGuestRunning_ = false;
    /** HW SVt with fewer contexts than levels (Section 3.1). */
    bool svtMultiplexed_ = false;
    /** Which level currently owns the shared context (1 or 2). */
    int svtCtx1Owner_ = 2;

    /** Engine on which L1 code currently executes (null in the HW
     *  SVt paths, where L1 runs on an SVt context: l1ViaSvt_). */
    VmxEngine *l1Engine_ = nullptr;
    bool l1ViaSvt_ = false;
    /** Slowdown applied to L1 handler compute (poll-channel SMT
     *  interference, Section 6.1). */
    double l1Slowdown_ = 1.0;
    /** Vector most recently delivered into L2 (-1 if none). */
    int l2DeliveredVector_ = -1;

    bool inL1Window_ = false;
    bool pumping_ = false;

    // -- PMU handles (interned in setupCommon) -----------------------------
    /** Per-exit-reason count plus simulated-latency histogram. */
    struct ReasonMetrics
    {
        Counter count;
        LatencyHistogram latency;
    };
    using PerReason =
        std::array<ReasonMetrics,
                   static_cast<std::size_t>(ExitReason::NumReasons)>;

    /** L2 trap rounds keyed by exit reason (nested rounds). */
    PerReason l2ExitMetric_;
    /** L1-grade exits handled by L0 (single-level rounds). */
    PerReason l0ExitMetric_;

    Counter transform0212Metric_;
    Counter transform1202Metric_;
    Counter reflectMetric_;
    Counter directReflectMetric_;
    Counter ept02FillMetric_;
    Counter ept02MmioMetric_;
    Counter hkOverlappedMetric_;
    Counter hkSerialMetric_;
    Counter ctxMultiplexMetric_;
    Counter preemptionMetric_;
    Counter svtBlockedMetric_;
    Counter swsvtPairedMetric_;
    Counter svtFallbackMetric_;
    Counter svtRepromoteMetric_;
    Counter svtWatchdogRetryMetric_;
    std::array<Counter, 3> irqDeliveredMetric_;
    /** Exit-elision ladder: nested exits avoided by posted-interrupt
     *  delivery, EOI traps avoided by x2APIC virtualization, and
     *  posted-interrupt notifications sent. */
    Counter elidedExitMetric_;
    Counter elidedEoiMetric_;
    Counter postedNotifyMetric_;
    /** The HW SVt exit path bumps the same vmx.exit* slots VmxEngine
     *  registers (an SVt trap replaces the exit microcode). */
    Counter vmxExitMetric_;
    std::array<Counter,
               static_cast<std::size_t>(ExitReason::NumReasons)>
        vmxExitReasonMetric_;
};

} // namespace svtsim

#endif // SVTSIM_HV_VIRT_STACK_H
