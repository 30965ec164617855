/**
 * @file
 * Makes stats exports from different runs in one process comparable.
 *
 * StatsRegistry::uniquePrefix never reuses an instance number within a
 * process, so consecutive runs register as system.hwgc0, system.hwgc1,
 * ... normalizeInstanceIds() replaces the instance digits after every
 * "system.hwgc", "system.cpu" and "system.fleet" with "#", so two
 * exports compare directly as strings.
 */

#ifndef HWGC_TESTS_INSTANCE_IDS_H
#define HWGC_TESTS_INSTANCE_IDS_H

#include <cctype>
#include <string>
#include <string_view>

namespace hwgc
{

inline std::string
normalizeInstanceIds(std::string_view s)
{
    constexpr std::string_view keys[] = {"system.hwgc", "system.cpu",
                                         "system.fleet"};
    std::string out;
    out.reserve(s.size());
    std::size_t i = 0;
    while (i < s.size()) {
        std::size_t matched = 0;
        for (const std::string_view key : keys) {
            if (s.substr(i, key.size()) == key) {
                matched = key.size();
                break;
            }
        }
        if (matched == 0) {
            out.push_back(s[i++]);
            continue;
        }
        out.append(s.substr(i, matched));
        i += matched;
        while (i < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        out.push_back('#');
    }
    return out;
}

} // namespace hwgc

#endif // HWGC_TESTS_INSTANCE_IDS_H
