/**
 * @file
 * Scoped changes to the process-global telemetry options.
 *
 * telemetry::options() is one instance per process, and a test that
 * turns the profiler on or arms a checkpoint must not leak that into
 * the next test of the same binary.
 */

#ifndef HWGC_TESTS_OPTIONS_GUARD_H
#define HWGC_TESTS_OPTIONS_GUARD_H

#include "sim/telemetry.h"

namespace hwgc
{

/** Restores the process-global telemetry options on scope exit. */
struct OptionsGuard
{
    telemetry::Options saved = telemetry::options();
    ~OptionsGuard() { telemetry::options() = saved; }
};

} // namespace hwgc

#endif // HWGC_TESTS_OPTIONS_GUARD_H
