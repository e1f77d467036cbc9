#include "arch/exit_reason.h"

namespace svtsim {

const char *
exitReasonName(ExitReason reason)
{
    static constexpr const char *names[] = {
#define SVTSIM_EXIT_REASON_NAME(reason, name) name,
        SVTSIM_EXIT_REASONS(SVTSIM_EXIT_REASON_NAME)
#undef SVTSIM_EXIT_REASON_NAME
    };
    const auto i = static_cast<std::size_t>(reason);
    return i < numExitReasons ? names[i] : "UNKNOWN";
}

} // namespace svtsim
