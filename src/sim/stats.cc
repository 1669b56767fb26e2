#include "sim/stats.hh"

#include <algorithm>

#include "sim/annotations.hh"

#include "sim/log.hh"

namespace invisifence {

namespace {

/** Does @p name match "prefix*suffix" (or equal a '*'-less pattern)? */
bool
matches(std::string_view name, std::string_view pattern)
{
    const std::size_t star = pattern.find('*');
    if (star == std::string_view::npos)
        return name == pattern;
    const std::string_view prefix = pattern.substr(0, star);
    const std::string_view suffix = pattern.substr(star + 1);
    return name.size() >= prefix.size() + suffix.size() &&
           name.substr(0, prefix.size()) == prefix &&
           name.substr(name.size() - suffix.size()) == suffix;
}

} // namespace

void
StatRegistry::registerStat(const std::string& name,
                           const std::uint64_t* value, Kind kind)
{
    IF_DBG_ASSERT(value != nullptr);
    stats_[name] = Entry{value, kind};
}

std::uint64_t
StatRegistry::get(const std::string& name) const
{
    auto it = stats_.find(name);
    if (it == stats_.end())
        IF_FATAL("unknown statistic '%s'", name.c_str());
    return *it->second.value;
}

StatRegistry::Snapshot
StatRegistry::snapshot() const
{
    Snapshot out;
    out.reserve(stats_.size());
    for (const auto& [name, entry] : stats_)
        out.push_back(*entry.value);
    return out;
}

std::uint64_t
StatRegistry::aggregate(const Snapshot& snap, std::string_view pattern,
                        Kind& kind) const
{
    if (snap.size() != stats_.size())
        IF_FATAL("stat snapshot of %zu values read against a registry "
                 "of %zu", snap.size(), stats_.size());
    kind = Kind::Counter;
    bool matched = false;
    std::uint64_t acc = 0;
    std::size_t i = 0;
    for (const auto& [name, entry] : stats_) {
        const std::uint64_t v = snap[i++];
        if (!matches(name, pattern))
            continue;
        if (matched && entry.kind != kind) {
            IF_FATAL("stat pattern '%.*s' mixes counters and high-water "
                     "marks", static_cast<int>(pattern.size()),
                     pattern.data());
        }
        kind = entry.kind;
        matched = true;
        acc = kind == Kind::HighWater ? std::max(acc, v) : acc + v;
    }
    return acc;
}

std::uint64_t
StatRegistry::aggregate(const Snapshot& snap,
                        std::string_view pattern) const
{
    Kind kind = Kind::Counter;
    return aggregate(snap, pattern, kind);
}

std::uint64_t
StatRegistry::aggregate(std::string_view pattern) const
{
    return aggregate(snapshot(), pattern);
}

std::uint64_t
StatRegistry::window(const Snapshot& before, const Snapshot& after,
                     std::string_view pattern) const
{
    Kind kind = Kind::Counter;
    const std::uint64_t end = aggregate(after, pattern, kind);
    if (kind == Kind::HighWater)
        return end;
    const std::uint64_t start = aggregate(before, pattern);
    return end >= start ? end - start : 0;
}

} // namespace invisifence
