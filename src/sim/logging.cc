/**
 * @file
 * Implementation of the status/error reporting helpers.
 */

#include "logging.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

namespace hwgc
{

bool Debug::anyEnabled_ = false;

namespace
{

std::set<std::string> &
flagSet()
{
    static std::set<std::string> flags;
    return flags;
}

void
vreport(const char *prefix, const char *fmt, std::va_list ap)
{
    std::fprintf(stderr, "%s", prefix);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

struct CrashHookEntry
{
    unsigned id;
    void (*hook)(void *ctx);
    void *ctx;
};

std::vector<CrashHookEntry> &
crashHooks()
{
    static std::vector<CrashHookEntry> hooks;
    return hooks;
}

unsigned crashHookNextId = 1;

/** Runs every registered crash hook, most recent first. Each entry is
 *  popped before its hook is invoked, so a panic *inside* a hook
 *  cannot recurse into it — the older hooks still get their turn. */
void
runCrashHook()
{
    auto &hooks = crashHooks();
    while (!hooks.empty()) {
        const CrashHookEntry entry = hooks.back();
        hooks.pop_back();
        entry.hook(entry.ctx);
    }
}

} // namespace

unsigned
addCrashHook(void (*hook)(void *ctx), void *ctx)
{
    const unsigned id = crashHookNextId++;
    crashHooks().push_back({id, hook, ctx});
    return id;
}

void
removeCrashHook(unsigned id)
{
    auto &hooks = crashHooks();
    for (auto it = hooks.begin(); it != hooks.end(); ++it) {
        if (it->id == id) {
            hooks.erase(it);
            return;
        }
    }
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    runCrashHook();
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    runCrashHook();
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn: ", fmt, ap);
    va_end(ap);
}

bool
writeWholeFile(const std::string &path, const std::string &data,
               std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        error = std::strerror(errno);
        return false;
    }
    errno = 0;
    const bool written =
        std::fwrite(data.data(), 1, data.size(), f) == data.size() &&
        std::fflush(f) == 0 && std::ferror(f) == 0;
    const int cause = errno; // The first failure names the cause.
    if (std::fclose(f) == 0 && written) {
        return true;
    }
    const int err = !written ? cause : errno;
    error = std::strerror(err != 0 ? err : EIO);
    return false;
}

void
informImpl(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("info: ", fmt, ap);
    va_end(ap);
}

void
Debug::enable(const std::string &flag)
{
    flagSet().insert(flag);
    anyEnabled_ = true;
}

void
Debug::disable(const std::string &flag)
{
    flagSet().erase(flag);
    anyEnabled_ = !flagSet().empty();
}

bool
Debug::enabled(const std::string &flag)
{
    return flagSet().count(flag) != 0;
}

void
Debug::parseFlagList(const std::string &list)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
            comma = list.size();
        }
        std::string token = list.substr(pos, comma - pos);
        pos = comma + 1;
        // Trim surrounding whitespace.
        const auto begin = token.find_first_not_of(" \t");
        if (begin == std::string::npos) {
            continue;
        }
        const auto end = token.find_last_not_of(" \t");
        token = token.substr(begin, end - begin + 1);
        if (token[0] == '-') {
            disable(token.substr(1));
        } else {
            enable(token);
        }
    }
}

void
Debug::initFromEnv()
{
    if (const char *env = std::getenv("HWGC_DEBUG")) {
        parseFlagList(env);
    }
}

namespace
{

/** Applies HWGC_DEBUG before main() so DPRINTF needs no code edits. */
[[maybe_unused]] const bool debug_env_applied =
    (Debug::initFromEnv(), true);

} // namespace

void
Debug::print(unsigned long long tick, const char *flag,
             const char *fmt, ...)
{
    std::fprintf(stderr, "%10llu: %s: ", tick, flag);
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
}

} // namespace hwgc
