/**
 * @file
 * Open-addressed flat hash map keyed by address.
 *
 * The directory's per-block state and transient-slot index and the MSHR
 * file's block index are hot single-key lookups on every protocol step; a node-based
 * unordered_map costs a pointer chase (and a cold line) per probe.
 * FlatAddrMap stores keys and values in two parallel arrays (split
 * lanes, like the cache tag arrays): a linear probe walks contiguous
 * 8-byte keys, and the value lane is touched only on a hit.
 *
 * Layout/behavior notes:
 *  - power-of-two capacity, multiplicative-hash home slot, linear probe;
 *  - deletion uses backward-shift (no tombstones, so probe chains never
 *    degrade and load factor alone bounds probe length);
 *  - growth doubles the table and rehashes; a table reserved up front
 *    for its known population (reserve()), or grown during warmup,
 *    keeps the steady state allocation-free
 *    (tests/alloc_steadystate_test.cc);
 *  - the all-ones key is reserved as the empty sentinel. Block-aligned
 *    addresses (and the MSHR index's tagged keys, which only use the
 *    low alignment bits, and the directory's dedup keys, whose top 32
 *    bits hold a node id) can never collide with it.
 */

#ifndef INVISIFENCE_SIM_FLAT_MAP_HH
#define INVISIFENCE_SIM_FLAT_MAP_HH

#include "sim/annotations.hh"
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace invisifence {

/** Linear-probe open-addressed Addr -> V map with split key/value lanes. */
template <typename V>
class FlatAddrMap
{
  public:
    /** Reserved empty-slot marker; never a valid key. */
    static constexpr Addr kEmptyKey = ~Addr{0};

    explicit FlatAddrMap(std::size_t initial_capacity = 64)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap *= 2;
        keys_.assign(cap, kEmptyKey);
        vals_.resize(cap);
        mask_ = cap - 1;
    }

    V*
    find(Addr key)
    {
        IF_DBG_ASSERT(key != kEmptyKey);
        std::size_t i = homeSlot(key);
        while (true) {
            if (keys_[i] == key)
                return &vals_[i];
            if (keys_[i] == kEmptyKey)
                return nullptr;
            i = (i + 1) & mask_;
        }
    }

    const V*
    find(Addr key) const
    {
        return const_cast<FlatAddrMap*>(this)->find(key);
    }

    /**
     * Value for @p key, value-initialized and inserted when absent.
     * May grow (rehash): references from earlier calls are invalidated
     * by an insert, so callers must not hold one across getOrCreate.
     */
    V&
    getOrCreate(Addr key, bool* created = nullptr)
    {
        IF_DBG_ASSERT(key != kEmptyKey);
        std::size_t i = homeSlot(key);
        while (keys_[i] != kEmptyKey) {
            if (keys_[i] == key) {
                if (created)
                    *created = false;
                return vals_[i];
            }
            i = (i + 1) & mask_;
        }
        if (created)
            *created = true;
        // Keep load factor at or below 1/2 so probe chains stay short.
        if ((size_ + 1) * 2 > capacity()) {
            grow();
            i = homeSlot(key);
            while (keys_[i] != kEmptyKey)
                i = (i + 1) & mask_;
        }
        keys_[i] = key;
        vals_[i] = V{};
        ++size_;
        return vals_[i];
    }

    /** Remove @p key (backward-shift deletion). False when absent. */
    bool
    erase(Addr key)
    {
        IF_DBG_ASSERT(key != kEmptyKey);
        std::size_t i = homeSlot(key);
        while (true) {
            if (keys_[i] == kEmptyKey)
                return false;
            if (keys_[i] == key)
                break;
            i = (i + 1) & mask_;
        }
        --size_;
        // Backward-shift: slide later chain members into the hole when
        // their home slot precedes it (cyclically), so no tombstone is
        // left and find() can stop at the first empty slot.
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (keys_[j] == kEmptyKey)
                break;
            const std::size_t h = homeSlot(keys_[j]);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                keys_[hole] = keys_[j];
                vals_[hole] = vals_[j];
                hole = j;
            }
        }
        keys_[hole] = kEmptyKey;
        vals_[hole] = V{};
        return true;
    }

    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmptyKey)
                fn(keys_[i], vals_[i]);
        }
    }

    /**
     * Size the table once so @p n keys fit without growth (load factor
     * at most 1/2). A no-op when the table is already that large. On a
     * fresh table this is one allocation per lane and no rehash.
     */
    IF_COLD_FN void
    reserve(std::size_t n)
    {
        IF_COLD_ALLOC("set-up sizing: called once before the run, from "
                      "the number of keys the table is known to hold");
        std::size_t cap = capacity();
        while (cap < n * 2)
            cap *= 2;
        if (cap != capacity())
            rehashTo(cap);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return keys_.size(); }

  private:
    std::size_t
    homeSlot(Addr key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
    }

    IF_COLD_FN void
    grow()
    {
        IF_COLD_ALLOC("open-addressing table doubling: the table only "
                      "grows until the live-key high-water mark; "
                      "steady-state insert/erase churn stays below it");
        rehashTo(capacity() * 2);
    }

    /** Move every key into a fresh table of power-of-two @p cap. */
    void
    rehashTo(std::size_t cap)
    {
        std::vector<Addr> old_keys(cap, kEmptyKey);
        std::vector<V> old_vals(cap);
        old_keys.swap(keys_);
        old_vals.swap(vals_);
        mask_ = keys_.size() - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmptyKey)
                continue;
            std::size_t j = homeSlot(old_keys[i]);
            while (keys_[j] != kEmptyKey)
                j = (j + 1) & mask_;
            keys_[j] = old_keys[i];
            vals_[j] = old_vals[i];
        }
    }

    std::vector<Addr> keys_;   //!< hot probe lane
    std::vector<V> vals_;      //!< cold lane, parallel to keys_
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_SIM_FLAT_MAP_HH
