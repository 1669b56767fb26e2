/**
 * @file
 * Reorder buffer entry and container.
 *
 * Loads live in the ROB itself (entries with a bound value act as the
 * load queue for snoop-based in-window speculation); stores execute their
 * memory side at retirement, so no separate store queue is modeled.
 */

#ifndef INVISIFENCE_CPU_ROB_HH
#define INVISIFENCE_CPU_ROB_HH

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cpu/instruction.hh"
#include "cpu/program.hh"
#include "sim/types.hh"

namespace invisifence {

/** Context value meaning "not part of any speculation". */
constexpr std::uint32_t kNoSpecCtx = 0xffffffffu;

/** One in-flight instruction. */
struct RobEntry
{
    enum class Status : std::uint8_t
    {
        Dispatched,  //!< waiting to issue to memory
        Issued,      //!< executing; completes at readyAt or via fill
        Done,        //!< result bound; eligible to retire
    };

    Instruction inst{};
    InstSeq seq = 0;
    Status status = Status::Dispatched;
    std::uint64_t result = 0;
    bool valueBound = false;    //!< result holds real data (LQ snooping)
    bool prefetched = false;    //!< store/atomic write-permission prefetch
    Cycle readyAt = 0;
    bool specMarked = false;    //!< set a speculatively-read bit at execute
    std::uint32_t specCtx = kNoSpecCtx;  //!< checkpoint the bit belongs to
    /** Load issue blocked on this unresolved older atomic (0 = none):
     *  while that producer stays unresolved the forwarding scan would
     *  repeat the same walk to the same answer, so it is skipped. */
    InstSeq waitSeq = 0;
    /** Store-likes only: seq of the next-older in-window store-like to
     *  the same word at dispatch time (0 = none). Retirement leaves
     *  the link in place — a chain hop to a retired seq means every
     *  older same-word store has retired too, ending the walk. */
    InstSeq prevSameWord = 0;
    /** An MSHR-full rejection was already counted for the current issue
     *  episode (cleared when the request is accepted), so retry loops
     *  count stall episodes, not retries — identically in the legacy
     *  and fast-forward tick loops. */
    bool mshrStallNoted = false;
};

static_assert(std::is_trivially_copyable_v<RobEntry>,
              "RobEntry must stay POD: the ROB is a preallocated ring");

/**
 * In-order window of RobEntry: a fixed ring over preallocated slots.
 *
 * The previous std::deque representation allocated a chunk per entry
 * (RobEntry is larger than a deque node), putting a malloc/free pair on
 * every dispatch/retire — the per-instruction hot path. The ring is
 * allocated once at construction and recycled forever.
 *
 * The per-entry program snapshot (192 bytes, read only at retirement
 * and on rollbacks) lives in a parallel cold lane, keeping RobEntry at
 * ~1/3 the size so the forwarding chain walks stride hot fields only —
 * the same split-lane layout as the cache arrays.
 *
 * Two slot masks, one bit per physical ring slot, name the entries the
 * core's per-tick walks care about, so those walks visit set bits
 * instead of the whole window (see Mask). The core sets and clears the
 * bits at every status transition; the ring itself drops the bits of
 * every slot it removes (popHead, squashAfter, clear), so a set bit
 * always names a live entry and a freshly pushed slot starts unmarked.
 */
class Rob
{
  public:
    /** Slot-mask selector. */
    enum class Mask : std::uint8_t
    {
        /** Execute-stage work: Issued entries with a bound value
         *  (awaiting readyAt) and Dispatched load-likes (awaiting
         *  issue). */
        Pending,
        /** Value-bound load-likes: the in-window load queue the
         *  invalidation snoop searches. */
        Bound,
    };

    explicit Rob(std::uint32_t capacity)
        : capacity_(capacity), slots_(capacity), snaps_(capacity),
          pending_((capacity + 63) / 64), bound_((capacity + 63) / 64)
    {}

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::uint32_t capacity() const { return capacity_; }

    RobEntry& head() { return slots_[head_]; }
    const RobEntry& head() const { return slots_[head_]; }

    RobEntry&
    push()
    {
        return slots_[slot(size_++)];
    }

    void
    popHead()
    {
        dropSlot(head_);
        ++head_;
        if (head_ >= capacity_)
            head_ = 0;
        --size_;
    }

    /** Remove every entry strictly younger than index @p idx. */
    void
    squashAfter(std::size_t idx)
    {
        for (std::size_t i = idx + 1; i < size_; ++i)
            dropSlot(slot(i));
        size_ = idx + 1;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        unmarkAll();
    }

    RobEntry& at(std::size_t i) { return slots_[slot(i)]; }
    const RobEntry& at(std::size_t i) const { return slots_[slot(i)]; }

    /** Cold-lane program snapshot of the entry at index @p i ("program
     *  state just after this fetch"). */
    ProgSnapshot& snapAt(std::size_t i) { return snaps_[slot(i)]; }
    const ProgSnapshot& snapAt(std::size_t i) const
    {
        return snaps_[slot(i)];
    }

    /** Snapshot slot of the most recently pushed entry. */
    ProgSnapshot& lastSnap() { return snaps_[slot(size_ - 1)]; }

    /** Index of the entry with sequence number @p seq, or -1.
     *  In-window seqs are strictly increasing (dispatch appends rising
     *  numbers; squashes truncate the tail — leaving gaps, so offsets
     *  can't be computed directly), which makes a binary search exact:
     *  O(log robSize) instead of the old linear walk on every fill
     *  callback. */
    std::ptrdiff_t
    indexOf(InstSeq seq) const
    {
        std::size_t lo = 0, hi = size_;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (at(mid).seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < size_ && at(lo).seq == seq)
            return static_cast<std::ptrdiff_t>(lo);
        return -1;
    }

    /** @{ Slot-mask bits of the live entry @p e (a reference into this
     *  ring, e.g. from at() or head()). */
    void
    mark(Mask m, const RobEntry& e)
    {
        const std::size_t s = slotOf(e);
        bits(m)[s >> 6] |= std::uint64_t{1} << (s & 63);
    }

    void
    unmark(Mask m, const RobEntry& e)
    {
        const std::size_t s = slotOf(e);
        bits(m)[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }

    bool
    marked(Mask m, const RobEntry& e) const
    {
        const std::size_t s = slotOf(e);
        return (bits(m)[s >> 6] >> (s & 63)) & 1u;
    }
    /** @} */

    bool
    none(Mask m) const
    {
        for (const std::uint64_t w : bits(m)) {
            if (w != 0)
                return false;
        }
        return true;
    }

    std::size_t
    count(Mask m) const
    {
        std::size_t c = 0;
        for (const std::uint64_t w : bits(m))
            c += static_cast<std::size_t>(std::popcount(w));
        return c;
    }

    /** Clear both masks (the core's wholesale rebuild after a squash). */
    void
    unmarkAll()
    {
        for (std::uint64_t& w : pending_)
            w = 0;
        for (std::uint64_t& w : bound_)
            w = 0;
    }

    /**
     * Call @p fn(index) for every entry marked in @p m, oldest first,
     * until @p fn returns false: the physical slots [head, capacity),
     * then the wrapped [0, head). Each step re-reads the live mask word
     * from the next slot onward, so @p fn may clear its own bit or set
     * a younger entry's and the walk sees it — the same entries a full
     * oldest-first window scan testing each entry's live state would
     * visit. A squash or clear inside @p fn drops the removed slots'
     * bits, ending the walk at the new tail.
     */
    template <typename Fn>
    void
    forEachMarked(Mask m, Fn&& fn) const
    {
        const std::size_t head = head_;
        if (walkSlots(bits(m), head, capacity_, head, fn))
            walkSlots(bits(m), 0, head, head, fn);
    }

  private:
    /** Ring index without an integer division: i < capacity always. */
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head_ + i;
        return s < capacity_ ? s : s - capacity_;
    }

    std::size_t
    slotOf(const RobEntry& e) const
    {
        return static_cast<std::size_t>(&e - slots_.data());
    }

    std::vector<std::uint64_t>& bits(Mask m)
    {
        return m == Mask::Pending ? pending_ : bound_;
    }
    const std::vector<std::uint64_t>& bits(Mask m) const
    {
        return m == Mask::Pending ? pending_ : bound_;
    }

    /** Remove slot @p s from both masks (the entry leaves the ring). */
    void
    dropSlot(std::size_t s)
    {
        const std::uint64_t keep = ~(std::uint64_t{1} << (s & 63));
        pending_[s >> 6] &= keep;
        bound_[s >> 6] &= keep;
    }

    /** One physical segment [lo, hi) of forEachMarked; false when
     *  @p fn stopped the walk. @p head converts slots to indices. */
    template <typename Fn>
    bool
    walkSlots(const std::vector<std::uint64_t>& mask, std::size_t lo,
              std::size_t hi, std::size_t head, Fn& fn) const
    {
        if (lo >= hi)
            return true;
        const std::size_t last = (hi - 1) >> 6;
        std::uint64_t from = ~std::uint64_t{0} << (lo & 63);
        for (std::size_t wi = lo >> 6; wi <= last; ++wi) {
            const std::uint64_t upto =
                wi == last ? ~std::uint64_t{0} >> (63 - ((hi - 1) & 63))
                           : ~std::uint64_t{0};
            std::uint64_t w = mask[wi] & from & upto;
            while (w != 0) {
                const auto b = static_cast<std::size_t>(std::countr_zero(w));
                const std::size_t s = wi * 64 + b;
                if (!fn(s >= head ? s - head : s + capacity_ - head))
                    return false;
                if (b == 63)
                    break;
                w = mask[wi] & upto & (~std::uint64_t{0} << (b + 1));
            }
            from = ~std::uint64_t{0};
        }
        return true;
    }

    std::uint32_t capacity_;
    std::vector<RobEntry> slots_;
    std::vector<ProgSnapshot> snaps_;   //!< cold lane, parallel to slots_
    std::vector<std::uint64_t> pending_;   //!< Mask::Pending, per slot
    std::vector<std::uint64_t> bound_;     //!< Mask::Bound, per slot
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_ROB_HH
