/**
 * @file
 * Lightweight statistics registry.
 *
 * Components own plain uint64_t members and register them by name; the
 * harness reads the registry at the edges of a measured window and
 * derives every reported counter from the two readings (runFields() in
 * harness/runner.hh).
 */

#ifndef INVISIFENCE_SIM_STATS_HH
#define INVISIFENCE_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace invisifence {

/**
 * Registry of named uint64_t statistics.
 *
 * Registration stores a pointer to the component-owned counter; reading
 * the registry always reflects current values. Names are hierarchical
 * by convention, e.g. "core3.cycles.sb_drain". Aggregating lookups take
 * a pattern "prefix*suffix" matching every name with that prefix and
 * suffix; a pattern without '*' matches one exact name.
 */
class StatRegistry
{
  public:
    /** How a stat behaves across nodes and across a window. */
    enum class Kind : std::uint8_t
    {
        /** Nodes sum; the window value is after - before, clamped at 0
         *  (an abort can reclassify in-flight breakdown cycles, so a
         *  category may shrink slightly). */
        Counter,
        /** Nodes take the max; the window value is the reading at
         *  window end. */
        HighWater,
    };

    /** One reading of every stat, in name order. */
    using Snapshot = std::vector<std::uint64_t>;

    void registerStat(const std::string& name, const std::uint64_t* value,
                      Kind kind = Kind::Counter);

    /**
     * One stat by exact name. An unregistered name is fatal: a typo
     * must not silently fabricate a zero statistic.
     */
    std::uint64_t get(const std::string& name) const;

    /** Read every stat now. */
    Snapshot snapshot() const;

    /**
     * Node aggregate (see Kind) of the stats matching @p pattern in
     * @p snap. No match reads 0: some stats, e.g. "system.fault.*",
     * exist only in some systems. A pattern matching both kinds is
     * fatal.
     */
    std::uint64_t aggregate(const Snapshot& snap,
                            std::string_view pattern) const;

    /** aggregate() over the current values. */
    std::uint64_t aggregate(std::string_view pattern) const;

    /** Window value (see Kind) of @p pattern between two snapshots. */
    std::uint64_t window(const Snapshot& before, const Snapshot& after,
                         std::string_view pattern) const;

  private:
    struct Entry
    {
        const std::uint64_t* value = nullptr;
        Kind kind = Kind::Counter;
    };

    /** aggregate(), also reporting the matched kind. */
    std::uint64_t aggregate(const Snapshot& snap, std::string_view pattern,
                            Kind& kind) const;

    std::map<std::string, Entry> stats_;
};

} // namespace invisifence

#endif // INVISIFENCE_SIM_STATS_HH
