/**
 * @file
 * Out-of-line checkpoint pieces: the Clocked serialize() default
 * (which panics — every checkpointed component must override it) and
 * the System kernel-state serialization.
 */

#include "checkpoint.h"

#include <algorithm>

#include "sim/clocked.h"

namespace hwgc
{

void
Clocked::serialize(checkpoint::Archive &ar)
{
    (void)ar;
    panic("component '%s' does not support checkpointing",
          name_.c_str());
}

void
System::serialize(checkpoint::Archive &ar)
{
    ar(now_, executedCycles_);
    if (!ar.loading()) {
        return;
    }
    // Every cached wakeup is stale; the run entry points also set
    // this, but restoring directly into a paused System must not
    // depend on that.
    dirty_ = ~std::uint64_t(0);
    std::fill(wake_.begin(), wake_.end(), maxTick);
}

} // namespace hwgc
