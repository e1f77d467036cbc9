/**
 * @file
 * Per-operation timing parameters for the machine model.
 *
 * Every simulated hardware or software step consumes time through one of
 * these constants. The defaults are calibrated (see
 * tests/calibration_test.cc and bench/table1_breakdown.cc) so that the
 * six stages of the paper's Table 1 land on the measured values for a
 * cpuid round trip in a nested VM (10.40 us total on 2x Xeon E5-2630v3).
 * All other experiments reuse the same constants; there is no
 * per-benchmark tuning of trap costs.
 */

#ifndef SVTSIM_ARCH_COST_MODEL_H
#define SVTSIM_ARCH_COST_MODEL_H

#include "sim/ticks.h"

namespace svtsim {

/**
 * Calibrated per-operation costs.
 *
 * Units are Ticks (picoseconds); the helpers in sim/ticks.h (nsec/usec)
 * keep call sites readable.
 */
struct CostModel
{
    /** Core frequency, GHz (Table 4: Xeon E5-2630v3 @ 2.4 GHz). */
    double freqGhz = 2.4;

    /** One core cycle. */
    Ticks cycle() const { return svtsim::cycles(1, freqGhz); }

    // ---- Plain execution -------------------------------------------
    /** Native (unvirtualized) execution of a cpuid instruction.
     *  Table 1 row 0: 0.05 us of L2 time per iteration. */
    Ticks cpuidExec = nsec(50);
    /** One dependent register ALU operation. */
    Ticks regOp = nsec(0.42);
    /** L1-hit memory access (load or store). */
    Ticks memAccess = nsec(1.5);
    /** Last-level-cache hit. */
    Ticks llcAccess = nsec(15);
    /** DRAM access. */
    Ticks dramAccess = nsec(80);
    /** Native (unvirtualized) MSR access. */
    Ticks msrNative = nsec(35);

    // ---- Hardware VM transition costs ------------------------------
    /** VM exit microcode: squash, save guest state to the VMCS and
     *  load minimal host state. */
    Ticks vmExitHw = nsec(300);
    /** VM entry microcode: validity checks plus guest-state load. */
    Ticks vmEntryHw = nsec(330);
    /** Software save of one GPR in the trap thunk. */
    Ticks thunkRegSave = nsec(6);
    /** Software restore of one GPR in the resume thunk. */
    Ticks thunkRegRestore = nsec(6);
    /** GPRs saved/restored by the hypervisor assembly thunk. */
    int thunkRegs = 15;
    /** Per-MSR cost of switching hypervisor-grade state when entering
     *  or leaving an L1 that is itself a hypervisor (MSR load lists,
     *  CR state, segment caches). Explains why the L0<->L1 switch
     *  (Table 1 row 4, 1.40 us) costs more than L0<->L2 (row 1). */
    Ticks msrSwitch = nsec(29.5);
    /** Number of MSRs on the hypervisor-state switch lists. */
    int msrSwitchCount = 10;

    // ---- VMX instruction costs (executed by a hypervisor) ----------
    /** vmread from the current (hardware) VMCS. */
    Ticks vmread = nsec(45);
    /** vmwrite to the current (hardware) VMCS. */
    Ticks vmwrite = nsec(17);
    /** vmread/vmwrite satisfied by the shadow VMCS (no trap). */
    Ticks vmShadowAccess = nsec(10);
    /** vmptrld: making a VMCS current. */
    Ticks vmptrld = nsec(130);
    /** In-memory copy of one cached VMCS field (KVM keeps software
     *  copies of vmcs12; transforms are memory-to-memory). */
    Ticks vmcsFieldCopy = nsec(5);
    /** Surcharge for transforming a field that holds a guest-physical
     *  address (walk + translate + validate). */
    Ticks vmcsFieldXlate = nsec(70);
    /** Fixed overhead per transform pass (function setup, dirty
     *  tracking). */
    Ticks vmcsXformFixed = nsec(56);

    // ---- Hypervisor software path costs ----------------------------
    /** Exit-reason decode and handler dispatch in the hypervisor. */
    Ticks handlerDispatch = nsec(150);
    /** Deciding whether an exit must be reflected to L1 (checks of
     *  vmcs12 exec controls). */
    Ticks nestedExitCheck = nsec(400);
    /** Bookkeeping of the emulated virtualization state machine in L0
     *  (per reflected exit; the bulk of Table 1 row 3). */
    Ticks nestedStateMachine = nsec(2380);
    /** Injecting one value of the trap context (a register or an exit
     *  info field) into the L1-visible state by vmread-from-vmcs02 +
     *  store. Elidable under HW SVt (becomes ctxtRegAccess). */
    Ticks lazySyncValue = nsec(62);
    /** Number of values synced per reflected exit (15 GPRs plus the
     *  exit-information fields). */
    int lazySyncValues = 25;
    /** Emulating one trapped vmread/vmwrite in L0 (lookup in vmcs12
     *  plus permission checks). */
    Ticks emulVmcsAccess = nsec(100);
    /** Emulating a cpuid in a hypervisor handler (table lookup and
     *  feature masking). */
    Ticks emulCpuid = nsec(150);
    /** Emulating an MSR access (capability checks, bitmap lookup). */
    Ticks emulMsr = nsec(250);
    /** Instruction decode for MMIO emulation (fetch + decode of the
     *  faulting instruction from guest memory). */
    Ticks mmioDecode = nsec(450);
    /** Fixed handler-logic cost of the L1 cpuid handler beyond its
     *  VMCS accesses (Table 1 row 5 residue). */
    Ticks l1HandlerLogic = nsec(55);

    // ---- Interrupts -------------------------------------------------
    /** Delivering an interrupt through the IDT to a handler. */
    Ticks interruptDeliver = nsec(200);
    /** Latency of an IPI between hardware contexts. */
    Ticks ipiLatency = nsec(500);
    /** APIC EOI write. */
    Ticks eoiWrite = nsec(80);
    /** Software cost of preparing event injection (filling the
     *  VM-entry interruption-information field and checks). */
    Ticks injectPrepare = nsec(350);
    /** Posted-interrupt recognition: the notification microcode scans
     *  the posted-interrupt descriptor and merges PIR bits into the
     *  running guest's IRR without a VM exit. */
    Ticks postedIntrNotify = nsec(180);
    /** x2APIC-virtualized EOI write: the store is satisfied from the
     *  virtual-APIC page in microcode, no trap. */
    Ticks virtApicEoi = nsec(50);

    // ---- SVt hardware (Table 2 machinery) ---------------------------
    /** Thread stall + fetch retarget on an SVt trap/resume: squash of
     *  in-flight instructions only; no state movement. */
    Ticks svtSwitch = nsec(20);
    /** One ctxtld/ctxtst cross-context register access (in hardware
     *  a rename-map indexed physical register file read/write). */
    Ticks ctxtRegAccess = nsec(2);
    /** Loading the SVt_* VMCS fields into the per-core u-registers at
     *  vmptrld (three field reads). */
    Ticks svtFieldLoad = nsec(6);

    // ---- SW SVt channel / wait mechanisms (Section 5.2, 6.1) -------
    /** Posting a command descriptor to a ring (few stores + flag). */
    Ticks ringPost = nsec(60);
    /** Copying one payload value into/out of a command (the GPRs and
     *  trap info travel with the command in SW SVt). */
    Ticks ringPayloadValue = nsec(12);
    /** monitor setup on a cache line. */
    Ticks monitorSetup = nsec(40);
    /** mwait wake when the writer is the SMT sibling (C1 exit plus
     *  pipeline refill; the line is already in the shared L1D). */
    Ticks mwaitWakeSmt = nsec(260);
    /** mwait wake from a different core on the same NUMA node. */
    Ticks mwaitWakeCore = nsec(900);
    /** mwait wake across NUMA nodes (order of magnitude worse,
     *  Section 6.1). */
    Ticks mwaitWakeNuma = nsec(6500);
    /** Busy-poll observation latency for an SMT sibling's store. */
    Ticks pollLatencySmt = nsec(80);
    /** Busy-poll observation latency, same NUMA different core. */
    Ticks pollLatencyCore = nsec(220);
    /** Busy-poll observation latency across NUMA nodes. */
    Ticks pollLatencyNuma = nsec(2400);
    /** Fraction of the sibling's execution slots a busy-polling SMT
     *  thread steals (Section 6.1: polling overheads grow with the
     *  workload under SMT). */
    double pollSmtSlowdown = 0.28;
    /** Mutex (futex) wake: syscall + scheduler + wakeup IPI. */
    Ticks mutexWake = nsec(2600);
    /** Mutex fast-path spin window before sleeping. */
    Ticks mutexSpinWindow = nsec(700);
    /** Producer-side wait when a command ring (or virtqueue) is full:
     *  the producer spins until the consumer frees a slot. Charged
     *  once per back-pressured post. */
    Ticks ringFullWait = usec(1);

    // ---- I/O building blocks ----------------------------------------
    /** Writing one virtqueue descriptor (few cache lines). */
    Ticks virtqueueDescriptor = nsec(120);
    /** Device-side processing of one virtio buffer (vhost worker). */
    Ticks vhostPerBuffer = nsec(900);
    /** Host NIC processing (DMA + driver) per packet. */
    Ticks nicPerPacket = nsec(1200);
    /** One-way wire latency between the two testbed machines. */
    Ticks wireLatency = usec(4.5);
    /** Physical link bandwidth, bits per second (Table 4: 10 GbE). */
    double linkBitsPerSec = 10e9;
    /** Per-byte copy cost through the paravirtual network stack. */
    Ticks netCopyPerByte = psec(85);
    /** Guest TCP/IP stack cost per segment (send or receive). */
    Ticks tcpStackPerSegment = usec(2.4);
    /** Remote (bare-metal) netperf peer turnaround time. */
    Ticks remotePeerTurnaround = usec(3.0);
    /** L1 filesystem + block layer cost per request (ramfs-backed
     *  virtio disk, Table 4). */
    Ticks blockLayerPerRequest = usec(2.1);
    /** Extra filesystem work for a write request (journalling and
     *  page dirtying on the ramfs backing store). */
    Ticks blockWriteSurcharge = usec(3.4);
    /** Data copy per byte for disk requests (two copies: guest ring
     *  to L1 page cache to backing store). */
    Ticks diskCopyPerByte = psec(160);

    // ---- Nested I/O trap structure ----------------------------------
    /** Non-shadowable VMCS accesses the L1 KVM performs per L2 I/O
     *  exit on top of the common housekeeping (interrupt state, TPR
     *  threshold, pending events). Each is an extra L1->L0 trap in
     *  the baseline; Section 2.3: "L1 handlers for other types of
     *  traps trigger many more traps into L0". */
    int l1IoExtraVmcsTraps = 10;
    /** L1-internal wakeup of the userspace/vhost I/O thread per kick
     *  (scheduler + context switch inside L1; no exit). */
    Ticks l1IoThreadWake = usec(2.0);
    /** L1-grade sensitive ops (EOI, irq bookkeeping) per *interrupt
     *  batch* handled by L1's device backend (one batch may carry many
     *  packets/completions; the EOI is per interrupt, not per buffer). */
    int l1IoBackendTraps = 5;
    /** Non-shadowable VMCS accesses per event injection into L2
     *  (interrupt-window request, pending-event rollback). */
    int l1InjectExtraVmcsTraps = 4;
    /** Guest-side (L2) syscall + filesystem path per disk request. */
    Ticks guestBlockSyscall = usec(5);
    /** vhost-net busy-poll window after draining a tx ring
     *  (busyloop_timeout): bulk senders rarely pay doorbell kicks. */
    Ticks vhostLingerPoll = usec(50);
    /** SW SVt: how much L1-vCPU housekeeping can overlap one
     *  SVt-thread exit-handling window (Section 6.3's "less noisy"
     *  latencies); the excess spills onto the measured path. */
    Ticks swSvtOverlapWindow = usec(60);
};

} // namespace svtsim

#endif // SVTSIM_ARCH_COST_MODEL_H
