/**
 * @file
 * Independent audit of a compiled execution tape (graph/tape.h).
 *
 * The tape's whole claim is that the memory plan IS the allocator: an
 * arena of exactly pool_peak_bytes, every transient output placed at
 * its planner offset, and every transient freed right after the
 * record of its liveness last use.  auditTape re-checks that claim
 * without trusting the tape's own compile-time bookkeeping:
 *
 *  - the arena must be plan().pool_peak_bytes, byte for byte, and
 *    re-planning the tape's own liveness analysis must reproduce that
 *    peak (a mismatch means the tape was compiled against a stale
 *    plan);
 *  - the re-plan records an obs::MemoryTimeline whose address replay
 *    must agree with the arena size (the planner's footprint curve,
 *    independently integrated);
 *  - every transient output slot must sit at its planned offset with
 *    its planned size, inside the arena;
 *  - every transient must appear on exactly one free list, that of the
 *    record at its liveness last_use_pos (earlier frees a value a
 *    later record still reads; later or never pins arena bytes the
 *    planner hands to another value);
 *  - replaying the records in schedule order with those free lists
 *    must never place two simultaneously-live transients in
 *    overlapping bytes, and must reach a high-water mark equal to
 *    pool_peak_bytes.
 *
 * Run by `echo-lint --tape` and by the tape tests over the tape that
 * Executor::compile() builds.
 */
#ifndef ECHO_ANALYSIS_TAPE_AUDIT_H
#define ECHO_ANALYSIS_TAPE_AUDIT_H

#include "analysis/report.h"

namespace echo::graph {
class Tape;
} // namespace echo::graph

namespace echo::analysis {

/** Replay @p tape's records against its liveness/plan (see file
 *  comment).  Pure analysis: never runs the tape. */
AnalysisReport auditTape(const graph::Tape &tape);

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_TAPE_AUDIT_H
