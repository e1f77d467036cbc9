/**
 * @file
 * The one number parser of the bench command line and the `--faults`
 * grammar: whole-string, base-10 `std::from_chars`. A number is
 * decimal digits, and a double may add a '.' and a fraction. A sign,
 * space, base prefix, exponent, `inf`, `nan`, trailing text or an
 * out-of-range value fails the parse.
 */

#ifndef SVTSIM_SIM_DECIMAL_H
#define SVTSIM_SIM_DECIMAL_H

#include <charconv>
#include <string_view>
#include <type_traits>

namespace svtsim {

/** Parse all of @p text into @p out (an unsigned integer or a double);
 *  @p out is left alone on failure. */
template <class T>
bool
parseDecimal(std::string_view text, T &out)
{
    // from_chars alone would take a leading '-', "inf" and "nan".
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    const char *end = text.data() + text.size();
    T v{};
    std::from_chars_result r;
    if constexpr (std::is_floating_point_v<T>)
        r = std::from_chars(text.data(), end, v, std::chars_format::fixed);
    else
        r = std::from_chars(text.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end)
        return false;
    out = v;
    return true;
}

} // namespace svtsim

#endif // SVTSIM_SIM_DECIMAL_H
