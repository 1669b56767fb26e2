/**
 * @file
 * Retirement-slot cycle accounting (the categories of Figure 1/9).
 *
 * Every cycle a core attributes its retirement slot to exactly one
 * category. Cycles spent inside post-retirement speculation accrue to a
 * pending breakdown owned by the speculation engine; commit folds them
 * into the real categories, abort converts all of them to Violation
 * ("cycles spent executing post-retirement speculation that ultimately
 * rolls back").
 */

#ifndef INVISIFENCE_CPU_ACCOUNTING_HH
#define INVISIFENCE_CPU_ACCOUNTING_HH

#include <cstdint>

namespace invisifence {

/** Why the retirement slot made (or failed to make) progress. */
enum class StallKind : std::uint8_t
{
    None,      //!< retired at least one instruction: Busy
    SbFull,    //!< store stalled waiting for a free store buffer entry
    SbDrain,   //!< ordering requirement waiting on store buffer drain
               //!< (loads under SC, atomics, fences, commit waits)
    Other,     //!< non-ordering stall: miss at head, empty ROB, squash
};

/** Per-core cycle breakdown. */
struct Breakdown
{
    std::uint64_t busy = 0;
    std::uint64_t other = 0;
    std::uint64_t sbFull = 0;
    std::uint64_t sbDrain = 0;
    std::uint64_t violation = 0;

    void
    add(StallKind kind, std::uint64_t n = 1)
    {
        switch (kind) {
          case StallKind::None: busy += n; break;
          case StallKind::SbFull: sbFull += n; break;
          case StallKind::SbDrain: sbDrain += n; break;
          case StallKind::Other: other += n; break;
        }
    }

    /** Fold @p b into this breakdown category-by-category. */
    void
    merge(const Breakdown& b)
    {
        busy += b.busy;
        other += b.other;
        sbFull += b.sbFull;
        sbDrain += b.sbDrain;
        violation += b.violation;
    }

    std::uint64_t
    total() const
    {
        return busy + other + sbFull + sbDrain + violation;
    }

    void
    clear()
    {
        *this = Breakdown{};
    }
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_ACCOUNTING_HH
