/**
 * @file
 * Reading the doubles of the text checkpoint formats. Checkpoints
 * write doubles with operator<< at 17 significant digits, which
 * prints non-finite values as `nan`, `inf` and `-inf`; libstdc++'s
 * operator>> cannot read those back, so a loader that may meet them
 * reads its doubles through these, as strtod parses them. strtod
 * also throws nothing and, unlike std::stod, keeps subnormals.
 */

#ifndef FLEXON_COMMON_TEXT_NUMBER_HH
#define FLEXON_COMMON_TEXT_NUMBER_HH

#include <cstdlib>
#include <istream>
#include <string>

namespace flexon {

/**
 * Parse the whole of `text` as a double. Returns false, leaving `out`
 * unchanged, if strtod consumes none or not all of it.
 */
inline bool
parseDouble(const char *text, double &out)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return false;
    out = value;
    return true;
}

/**
 * Read one whitespace-delimited token as a double; sets failbit on
 * the stream if the token is not one whole double.
 */
inline std::istream &
readDouble(std::istream &is, double &out)
{
    std::string token;
    if (is >> token && !parseDouble(token.c_str(), out))
        is.setstate(std::ios::failbit);
    return is;
}

} // namespace flexon

#endif // FLEXON_COMMON_TEXT_NUMBER_HH
