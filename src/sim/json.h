/**
 * @file
 * The JSON string and number writers shared by every JSON exporter
 * (trace events, the PMU dump, bench results).
 */

#ifndef SVTSIM_SIM_JSON_H
#define SVTSIM_SIM_JSON_H

#include <cstdio>
#include <ostream>
#include <string>

namespace svtsim {

/** Write @p s as a JSON string. Names are ASCII identifiers; quotes,
 *  backslashes, newlines and tabs are escaped and any other control
 *  byte becomes a space. */
inline void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' ';
            else
                os << c;
        }
    }
    os << '"';
}

/** Round-trippable double (17 significant digits); deterministic
 *  because the values themselves are. */
inline std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace svtsim

#endif // SVTSIM_SIM_JSON_H
