/**
 * @file
 * The every-cycle reference walk, for differential tests.
 *
 * sim::BatchExecutor runs the RT units' event-driven schedule: a fetch
 * the full MSHR file refuses parks its slot, and the cycles in which no
 * state can change are skipped and charged in bulk. The reference walk
 * ticks every cycle and asks the file again on every retry. Each
 * shortcut of the model must reproduce it exactly: the same unit
 * counters, hits or neighbor lists, simulated cycles and, traced, the
 * same trace. This test-only type is the one way to select it.
 */
#ifndef RAYFLEX_TESTS_EVERY_CYCLE_WALK_HH
#define RAYFLEX_TESTS_EVERY_CYCLE_WALK_HH

#include "sim/executor.hh"

namespace rayflex::sim
{

struct EveryCycleWalk
{
    /** `exec`, running every batch on the reference walk. */
    static BatchExecutor
    on(BatchExecutor exec)
    {
        exec.every_cycle_ = true;
        return exec;
    }
};

} // namespace rayflex::sim

#endif // RAYFLEX_TESTS_EVERY_CYCLE_WALK_HH
