/**
 * @file
 * SW SVt shared-memory command channel (paper Section 5.2) and the
 * Section 6.1 wait-mechanism/placement latency model.
 *
 * Each L2 vCPU gets two unidirectional command rings between the L0
 * hypervisor thread and the L1 SVt-thread, carrying CMD_VM_TRAP and
 * CMD_VM_RESUME commands plus the register payload (the prototype has
 * no cross-thread register access hardware, so GPRs and trap info
 * travel with the command).
 */

#ifndef SVTSIM_HV_CHANNEL_H
#define SVTSIM_HV_CHANNEL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/exit_reason.h"
#include "arch/machine.h"
#include "arch/regs.h"

namespace svtsim {

/** How a waiter observes the channel (Section 6.1 study). */
enum class WaitMechanism
{
    /** Busy polling: lowest latency, steals sibling cycles on SMT. */
    Poll,
    /** monitor/mwait on the command cache line (what SW SVt uses). */
    Mwait,
    /** futex-style mutex: sleeps in the kernel after a short spin. */
    Mutex,
};

/** Relative placement of the two communicating threads. */
enum class Placement
{
    /** Same core, sibling SMT threads (SW SVt's configuration). */
    SmtSibling,
    /** Same NUMA node, different cores. */
    SameNode,
    /** Different NUMA nodes (order-of-magnitude worse latency). */
    CrossNode,
};

const char *waitMechanismName(WaitMechanism m);
const char *placementName(Placement p);

/**
 * Latency/interference model of one waiter observing one writer.
 */
struct ChannelModel
{
    WaitMechanism mechanism = WaitMechanism::Mwait;
    Placement placement = Placement::SmtSibling;

    /** Time from the writer's store to the waiter resuming useful
     *  execution. */
    Ticks wakeLatency(const CostModel &costs) const;

    /** Per-wait setup cost on the waiter side (monitor arm, futex
     *  spin window). */
    Ticks waiterSetup(const CostModel &costs) const;

    /**
     * Multiplicative slowdown imposed on the *working* thread while
     * the other thread waits (Section 6.1: polling on the SMT sibling
     * consumes execution cycles from the computing thread).
     */
    double workerSlowdown(const CostModel &costs) const;
};

/** Commands exchanged between L0 and the SVt-thread (Figure 5). */
enum class SwSvtCommand : std::uint8_t
{
    VmTrap,   ///< CMD_VM_TRAP: L0 -> SVt-thread
    VmResume, ///< CMD_VM_RESUME: SVt-thread -> L0
};

/**
 * Number of ringPayloadValue-sized values in one ChannelMessage:
 * numGprs GPRs + rip/rflags + the exit info block (reason, exit
 * qualification, guest-physical/linear addresses, instruction
 * length/info, interruption info). Producer and consumer must charge
 * the same amount — the payload crosses the shared lines once in each
 * direction regardless of which side touches it.
 */
constexpr int ringPayloadValues = numGprs + 2 + 7;

/** One command descriptor, including the register payload. */
struct ChannelMessage
{
    SwSvtCommand command = SwSvtCommand::VmTrap;
    ExitInfo info;
    std::array<std::uint64_t, numGprs> gprs{};
    std::uint64_t rip = 0;
    std::uint64_t rflags = 0;
    /** CMD_VM_RESUME only: the guest halted, do not re-enter it. */
    bool l2Halted = false;
};

/**
 * A unidirectional single-producer single-consumer command ring.
 *
 * The ring itself is deterministic data; post() charges the store/copy
 * costs, and the consumer charges wake latency via the ChannelModel.
 */
class CommandRing
{
  public:
    /**
     * @param machine Cost accounting.
     * @param name Instance name; prefixes this ring's PMU metrics
     *        (`<name>.posted`, `<name>.depth`, `<name>.wake_latency`,
     *        `<name>.full`) and its Chrome-trace counter track.
     * @param capacity Ring capacity; posting to a full ring models
     *        producer back-pressure (the producer waits for a slot,
     *        charging ringFullWait and bumping `<name>.full`).
     */
    CommandRing(Machine &machine, std::string name,
                std::size_t capacity = 8);

    const std::string &name() const { return name_; }

    /**
     * Post a message; charges ring-post plus payload-copy costs.
     * A full ring back-pressures the producer instead of panicking.
     *
     * @return False when a fault plan dropped the post (the doorbell
     *         store was lost and the message is not in the ring).
     */
    bool post(const ChannelMessage &msg);

    /** Non-destructively check for a pending message. */
    bool hasMessage() const { return count_ != 0; }

    /**
     * Pop the oldest message; charges the payload read cost.
     * @pre hasMessage().
     */
    ChannelMessage pop();

    /** Record the consumer-side wakeup latency (store -> waiter
     *  resumes) into this ring's mwait-wakeup histogram. */
    void recordWake(Ticks latency);

    /**
     * Model the consumer observing this ring: monitor/futex arm plus
     * the wake latency of @p channel, recorded into the wake
     * histogram. A fault plan can stretch the wake (delayed doorbell)
     * or insert a spurious wakeup, which pays a full arm+wake round
     * before re-arming.
     *
     * @pre hasMessage() — callers wait for the message first.
     */
    void consumeWake(const ChannelModel &channel);

    /** Discard all queued messages without charging time (watchdog
     *  fallback tears the protocol state down). */
    void clear();

    std::size_t depth() const { return count_; }
    std::uint64_t postedCount() const { return posted_; }
    std::uint64_t fullCount() const { return full_; }

  private:
    /** Update the depth gauge and mirror it as a trace counter. */
    void noteDepth();

    Machine &machine_;
    std::string name_;
    std::size_t capacity_;
    /**
     * Circular buffer of the queued messages: count_ of them, oldest
     * at head_. Sized to the capacity at construction; only a post to
     * a full ring (back-pressure, where the message still lands)
     * grows it.
     */
    std::vector<ChannelMessage> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t posted_ = 0;
    std::uint64_t full_ = 0;
    Counter postedMetric_;
    Counter fullMetric_;
    Gauge depthMetric_;
    LatencyHistogram wakeMetric_;
};

} // namespace svtsim

#endif // SVTSIM_HV_CHANNEL_H
