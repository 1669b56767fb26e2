#include "mem/victim_cache.hh"

#include "sim/annotations.hh"

namespace invisifence {

std::ptrdiff_t
VictimCache::indexOf(Addr addr) const
{
    const Addr blk = blockAlign(addr);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] == blk)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

void
VictimCache::eraseAt(std::size_t i)
{
    tags_.erase(tags_.begin() + static_cast<std::ptrdiff_t>(i));
}

void
VictimCache::insert(Addr block_addr)
{
    IF_HOT;
    IF_DBG_ASSERT(block_addr == blockAlign(block_addr));
    invalidate(block_addr);
    if (tags_.size() >= capacity_)
        eraseAt(0);
    hotPush(tags_, block_addr);
}

bool
VictimCache::extract(Addr addr)
{
    IF_HOT;
    const std::ptrdiff_t at = indexOf(addr);
    if (at < 0)
        return false;
    eraseAt(static_cast<std::size_t>(at));
    return true;
}

bool
VictimCache::invalidate(Addr addr)
{
    IF_HOT;
    const std::ptrdiff_t at = indexOf(addr);
    if (at < 0)
        return false;
    eraseAt(static_cast<std::size_t>(at));
    return true;
}

} // namespace invisifence
