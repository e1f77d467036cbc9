#include "hv/stack_config.h"

#include "sim/log.h"

namespace svtsim {

void
validateStackConfig(const StackConfig &config)
{
    // The name functions return "?" for a value outside their enum.
    const char *mode = virtModeName(config.mode);
    const char *mechanism = waitMechanismName(config.channel.mechanism);
    const char *placement = placementName(config.channel.placement);
    if (*mode == '?' || *mechanism == '?' || *placement == '?')
        fatal("StackConfig: mode %d, channel mechanism %d or placement "
              "%d is not a value of its enum",
              static_cast<int>(config.mode),
              static_cast<int>(config.channel.mechanism),
              static_cast<int>(config.channel.placement));

    if (config.svtDirectReflect && config.mode != VirtMode::HwSvt) {
        fatal("StackConfig: svtDirectReflect models the Section 3.1 "
              "HW SVt level bypass and requires mode hw-svt (mode is "
              "%s); clear svtDirectReflect or use VirtMode::HwSvt",
              mode);
    }

    StackConfig defaults;
    bool channel_tuned =
        config.channel.mechanism != defaults.channel.mechanism ||
        config.channel.placement != defaults.channel.placement;
    if (channel_tuned && config.mode != VirtMode::SwSvt) {
        fatal("StackConfig: channel (mechanism=%s, placement=%s) "
              "tunes the SW SVt command rings, which mode %s does not "
              "use; leave channel at its default or use "
              "VirtMode::SwSvt",
              mechanism, placement, mode);
    }

    if (config.svtWatchdog.enabled) {
        if (config.mode != VirtMode::SwSvt) {
            fatal("StackConfig: svtWatchdog guards the SW SVt "
                  "L0<->SVt-thread handshake, which mode %s does not "
                  "have; disable svtWatchdog or use VirtMode::SwSvt",
                  mode);
        }
        if (config.svtWatchdog.timeout <= 0 ||
            config.svtWatchdog.maxRetries < 1 ||
            config.svtWatchdog.backoff < 0 ||
            config.svtWatchdog.quietPeriod <= 0) {
            fatal("StackConfig: svtWatchdog needs timeout > 0, "
                  "maxRetries >= 1, backoff >= 0 and quietPeriod > 0");
        }
    }

    if (!config.svtBlockedFix && !isSvtMode(config.mode)) {
        fatal("StackConfig: svtBlockedFix=false disables the Section "
              "5.3 SVT_BLOCKED deadlock fix in the SVt trap path, but "
              "mode %s has no SVt; use VirtMode::SwSvt or "
              "VirtMode::HwSvt to study the deadlock",
              mode);
    }

    if (!config.hwVmcsShadowing && !isNestedMode(config.mode)) {
        fatal("StackConfig: hwVmcsShadowing only matters when a "
              "nested L1 issues vmread/vmwrite, so it cannot be "
              "disabled in mode %s; use a nested mode "
              "(nested-baseline, sw-svt, hw-svt)",
              mode);
    }

    if (config.postedInterrupts && !isNestedMode(config.mode)) {
        fatal("StackConfig: postedInterrupts elides *nested* exits on "
              "the L2 interrupt delivery path, which mode %s does not "
              "take; clear postedInterrupts or use a nested mode "
              "(nested-baseline, sw-svt, hw-svt)",
              mode);
    }

    if (config.virtioQueues < 1 || config.virtioQueues > 8) {
        fatal("StackConfig: virtioQueues must be in [1, 8] (got %d)",
              config.virtioQueues);
    }
    if (config.virtioQueues > 1 && !isNestedMode(config.mode)) {
        fatal("StackConfig: virtioQueues=%d configures multi-queue "
              "virtio devices for the nested exit-elision sweep, which "
              "mode %s does not run; use 1 queue or a nested mode",
              config.virtioQueues, mode);
    }

    if (config.virtioCoalesceCount < 1) {
        fatal("StackConfig: virtioCoalesceCount must be >= 1 (got %d); "
              "1 fires an interrupt per completion (no coalescing)",
              config.virtioCoalesceCount);
    }
    if (config.virtioCoalesceTimeout < 0) {
        fatal("StackConfig: virtioCoalesceTimeout must be >= 0 (got "
              "%lld); 0 disables the coalescing timer",
              static_cast<long long>(config.virtioCoalesceTimeout));
    }
    if (config.virtioCoalesceCount > 1 &&
        config.virtioCoalesceTimeout <= 0) {
        fatal("StackConfig: virtioCoalesceCount=%d without a "
              "virtioCoalesceTimeout would strand a tail batch smaller "
              "than the count forever; set virtioCoalesceTimeout > 0",
              config.virtioCoalesceCount);
    }
    bool coalesce_tuned = config.virtioCoalesceCount > 1 ||
                          config.virtioCoalesceTimeout > 0;
    if (coalesce_tuned && !isNestedMode(config.mode)) {
        fatal("StackConfig: virtio interrupt coalescing (count=%d, "
              "timeout=%lld) tunes the nested vhost completion path, "
              "which mode %s does not have; reset the coalescing knobs "
              "or use a nested mode",
              config.virtioCoalesceCount,
              static_cast<long long>(config.virtioCoalesceTimeout),
              mode);
    }
}

} // namespace svtsim
