/**
 * @file
 * Error reporting and status messages.
 *
 * Follows the gem5 idiom (panic/fatal), adapted to a library setting:
 * contract violations raise SimError exceptions instead of aborting
 * the process, so tests can exercise error paths.
 *
 *  - panic():  a bug in the simulator itself; should never happen.
 *  - fatal():  the user configured something invalid.
 */

#ifndef SVTSIM_SIM_LOG_H
#define SVTSIM_SIM_LOG_H

#include <stdexcept>
#include <string>
#include <utility>

namespace svtsim {

/** Base class for all simulator errors. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what) : std::runtime_error(what) {}
};

/** Raised by panic(): an internal invariant was violated. */
class PanicError : public SimError
{
  public:
    explicit PanicError(const std::string &what) : SimError(what) {}
};

/** Raised by fatal(): the user supplied an invalid configuration. */
class FatalError : public SimError
{
  public:
    explicit FatalError(const std::string &what) : SimError(what) {}
};

namespace log_detail {

std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace log_detail

/** Report an internal simulator bug and raise PanicError. */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        throw PanicError(std::string("panic: ") + fmt);
    } else {
        throw PanicError("panic: " +
                         log_detail::format(fmt,
                                            std::forward<Args>(args)...));
    }
}

/** Report an invalid user configuration and raise FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        throw FatalError(std::string("fatal: ") + fmt);
    } else {
        throw FatalError("fatal: " +
                         log_detail::format(fmt,
                                            std::forward<Args>(args)...));
    }
}

/** Assert an internal invariant; raises PanicError on failure. */
inline void
simAssert(bool cond, const char *what)
{
    if (!cond)
        panic("%s", what);
}

} // namespace svtsim

#endif // SVTSIM_SIM_LOG_H
