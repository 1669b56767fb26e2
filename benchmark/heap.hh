/**
 * @file
 * Process-wide heap accounting for ifbench: heap.cc replaces the global
 * operator new/delete family with counting versions, so the benchmark
 * can report allocations per simulated kilocycle and the peak live heap
 * of a figure point without touching the simulator.
 *
 * Single-threaded by design (ifbench runs one point at a time on one
 * thread); the counters are plain integers.
 */

#ifndef IFBENCH_HEAP_HH
#define IFBENCH_HEAP_HH

#include <cstddef>
#include <cstdint>

namespace ifbench::heap {

/** operator new calls (all forms) since process start. */
std::uint64_t allocations();

/** Highest live heap, in bytes (malloc_usable_size of every live
 *  operator-new block), since the last resetPeak(). */
std::size_t peakBytes();

/** Restart peak tracking from the current live size. */
void resetPeak();

} // namespace ifbench::heap

#endif // IFBENCH_HEAP_HH
