/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform, plus
 * cheap compile-out-able debug tracing guarded by named debug flags.
 *
 * Semantics follow the gem5 coding style document:
 *  - panic():  an internal simulator bug; aborts.
 *  - fatal():  a user/configuration error; exits cleanly with code 1.
 *  - warn():   functionality that may be incorrect but continues.
 *  - inform(): neutral status output.
 * Also the one checked whole-file writer.
 */

#ifndef HWGC_SIM_LOGGING_H
#define HWGC_SIM_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <string>

namespace hwgc
{

/** Terminates the process after reporting an internal simulator bug. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Terminates the process after reporting a user/configuration error. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Registers a hook invoked after the error message is printed but
 * before the process terminates, on any panic() or fatal(). Used by
 * the checkpoint layer to write an automatic crash dump for
 * post-mortem inspection. Any number of hooks may be registered (one
 * per live core::Soc); all of them run, most recent first.
 * Each hook is removed from the registry before it is invoked, so a
 * failure *inside* a hook cannot recurse into it — the remaining
 * hooks still run for their own sessions.
 * @return An id to pass to removeCrashHook().
 */
unsigned addCrashHook(void (*hook)(void *ctx), void *ctx);

/** Unregisters a hook by the id addCrashHook() returned (no-op if it
 *  already ran or was removed). */
void removeCrashHook(unsigned id);

/**
 * Writes @p data as the whole file @p path: opens, writes, flushes,
 * checks the error flag and closes. Returns false with errno's text
 * in @p error on any failure (a full disk at the final flush
 * included); the caller warns or fatal()s.
 */
bool writeWholeFile(const std::string &path, const std::string &data,
                    std::string &error);

/** Prints a warning; the simulation continues. */
void warnImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Prints a neutral status message. */
void informImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Debug-trace control. Flags are registered lazily by name; tracing is
 * globally off by default so the hot path is a single branch.
 */
class Debug
{
  public:
    /** Enables tracing for a named flag (e.g. "Marker", "DRAM"). */
    static void enable(const std::string &flag);

    /** Disables tracing for a named flag. */
    static void disable(const std::string &flag);

    /** Returns true if the named flag is enabled. */
    static bool enabled(const std::string &flag);

    /**
     * Parses a comma-separated flag list ("Marker,DRAM,-Bus"): a bare
     * name enables the flag, a '-' prefix disables it. This is the
     * HWGC_DEBUG environment-variable syntax, applied automatically at
     * process startup so tracing needs no code edits; callers may also
     * invoke it directly (the --debug-flags= CLI path).
     */
    static void parseFlagList(const std::string &list);

    /** Applies the HWGC_DEBUG environment variable (idempotent). */
    static void initFromEnv();

    /** True if any flag at all is enabled (hot-path guard). */
    static bool anyEnabled() { return anyEnabled_; }

    /** Prints one trace line: "tick: flag: message". */
    static void print(unsigned long long tick, const char *flag,
                      const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

  private:
    static bool anyEnabled_;
};

} // namespace hwgc

#define panic(...) ::hwgc::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::hwgc::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::hwgc::warnImpl(__VA_ARGS__)
#define inform(...) ::hwgc::informImpl(__VA_ARGS__)

/** Asserts an invariant that indicates a simulator bug when violated. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond) {                                                       \
            ::hwgc::panicImpl(__FILE__, __LINE__, __VA_ARGS__);           \
        }                                                                 \
    } while (0)

/** Reports a user error when the condition holds. */
#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond) {                                                       \
            ::hwgc::fatalImpl(__FILE__, __LINE__, __VA_ARGS__);           \
        }                                                                 \
    } while (0)

/** Cheap guarded trace printf; @p tick is the current cycle. */
#define DPRINTF(tick, flag, ...)                                          \
    do {                                                                  \
        if (::hwgc::Debug::anyEnabled() &&                                \
            ::hwgc::Debug::enabled(flag)) {                               \
            ::hwgc::Debug::print((tick), (flag), __VA_ARGS__);            \
        }                                                                 \
    } while (0)

#endif // HWGC_SIM_LOGGING_H
