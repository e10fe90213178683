/**
 * @file
 * The long-trace workload's program: a seeded key-value store built
 * with ir::IRBuilder.  Dozens of threads update Zipf-hot keys under
 * striped locks, so one testing input records millions of events,
 * spans several trace segments and needs wide vector clocks.
 */

#pragma once

#include <cstdint>

#include "workloads/workloads.h"

namespace ohabench {

/** Build the store plus @p profileRuns short profiling inputs and
 *  @p testRuns long testing inputs, all drawn from @p seed. */
oha::workloads::Workload makeLongTraceWorkload(std::uint64_t seed,
                                               std::size_t profileRuns,
                                               std::size_t testRuns);

} // namespace ohabench
