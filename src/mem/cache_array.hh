/**
 * @file
 * Set-associative cache array with LRU replacement and, for the L1D,
 * InvisiFence's per-block speculatively-read/written bits.
 *
 * The array is stored gem5-style as two parallel lanes. The hot *tag
 * lane* packs everything a lookup or victim scan needs into 16 bytes per
 * way ({block address, LRU stamp, state, dirty, packed spec bits}), laid
 * out set-major so one set's tags share one or two host cache lines. The
 * cold *data lane* holds the 64-byte block payloads and is only touched
 * when a caller actually reads or writes block data. A per-set MRU way
 * predictor short-circuits the tag scan for the common
 * same-block-as-last-time case (results are identical to a plain scan
 * since at most one way matches).
 *
 * Callers address lines through the lightweight `Line` accessor (array +
 * frame index) and may pin one across simulated time as a generation-
 * stamped `Handle`: the generation bumps whenever the frame's identity
 * changes (invalidate, victim install, flash invalidate), so
 * revalidation is one O(1) compare instead of a repeated tag scan.
 *
 * The flash operations model the single-cycle SRAM circuits of the
 * paper's Figure 3. In hardware they are constant-time; here they walk a
 * per-context index of speculatively-marked frames (maintained
 * incrementally by the spec-bit setters and debug-verified against a
 * full scan), so commit/abort cost O(marked lines) and countSpeculative
 * is O(1) rather than O(all lines).
 */

#ifndef INVISIFENCE_MEM_CACHE_ARRAY_HH
#define INVISIFENCE_MEM_CACHE_ARRAY_HH

#include "sim/annotations.hh"
#include <cstdint>
#include <string>
#include <vector>

#include "mem/block.hh"
#include "sim/function_ref.hh"
#include "sim/types.hh"

namespace invisifence {

/** Maximum number of in-flight speculation contexts (checkpoints). */
constexpr std::uint32_t kMaxCheckpoints = 2;

/** Stable coherence states of a block within a cache level. */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,     //!< read-only copy
    Exclusive,  //!< writable, clean
    Modified,   //!< writable, dirty
};

/** True when the state grants write permission. */
constexpr bool
isWritable(CoherenceState s)
{
    return s == CoherenceState::Exclusive || s == CoherenceState::Modified;
}

/** True when the state holds a valid copy of the data. */
constexpr bool
isValidState(CoherenceState s)
{
    return s != CoherenceState::Invalid;
}

/**
 * Tag sentinel held in CacheTag::blockAddr by every invalid frame. It
 * is not block-aligned, so it can never compare equal to a lookup key
 * — which lets the tag-probe loop drop its per-way valid() test and
 * reduce to one address compare per way (a branch-free match bitmask).
 */
constexpr Addr kInvalidTagAddr = 1;

/**
 * One tag-lane entry: everything a lookup/victim/flash scan reads,
 * packed into 16 bytes so a whole set scans within a host cache line
 * or two. Block data lives in the array's parallel data lane.
 */
struct CacheTag
{
    Addr blockAddr = kInvalidTagAddr;
    std::uint32_t lruStamp = 0;
    CoherenceState state = CoherenceState::Invalid;
    std::uint8_t dirty = 0;
    std::uint8_t specRead = 0;     //!< bit c: spec-read in context c
    std::uint8_t specWritten = 0;  //!< bit c: spec-written in context c

    bool valid() const { return isValidState(state); }
    bool speculative() const { return (specRead | specWritten) != 0; }
};

static_assert(sizeof(CacheTag) == 16,
              "tag lane must stay 16 bytes per way");

/**
 * Physically indexed, set-associative array with true-LRU replacement.
 *
 * Used for both the L1D (with speculative bits) and the private L2.
 */
class CacheArray
{
  public:
    /** Frame index sentinel: "no line". */
    static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};

    /**
     * Generation-stamped reference to a frame, pinnable across
     * simulated time. resolve() returns the line iff the frame still
     * holds the same block it did when the handle was taken.
     */
    struct Handle
    {
        std::uint32_t frame = kNoFrame;
        std::uint32_t generation = 0;

        bool null() const { return frame == kNoFrame; }
    };

    /**
     * Lightweight accessor for one line: array pointer + frame index.
     * All spec-bit and identity mutations go through the array so the
     * incremental speculative index and generation stamps stay exact.
     * Copyable two-word value; a default-constructed Line is null.
     */
    class Line
    {
      public:
        Line() = default;

        explicit operator bool() const { return arr_ != nullptr; }
        bool operator==(const Line&) const = default;

        Addr blockAddr() const { return tag().blockAddr; }
        CoherenceState state() const { return tag().state; }
        bool valid() const { return tag().valid(); }
        bool dirty() const { return tag().dirty != 0; }

        bool speculative() const { return tag().speculative(); }
        bool specReadAny() const { return tag().specRead != 0; }
        bool specWrittenAny() const { return tag().specWritten != 0; }

        bool
        specRead(std::uint32_t ctx) const
        {
            return ((static_cast<std::uint32_t>(tag().specRead) >> ctx) &
                    1u) != 0;
        }

        bool
        specWritten(std::uint32_t ctx) const
        {
            return ((static_cast<std::uint32_t>(tag().specWritten) >>
                     ctx) & 1u) != 0;
        }

        /** Block payload in the cold data lane. */
        BlockData& data() const { return arr_->data_[frame_]; }

        /** Generation-stamped reference to this frame, for pinning. */
        Handle
        handle() const
        {
            return {frame_, arr_->gen_[frame_]};
        }

        /** Change coherence state (never to Invalid; use invalidate). */
        void
        setState(CoherenceState s) const
        {
            IF_DBG_ASSERT(isValidState(s));
            tag().state = s;
        }

        void setDirty(bool d) const { tag().dirty = d ? 1 : 0; }

        /** Mark spec-read in @p ctx; maintains the speculative index. */
        void
        setSpecRead(std::uint32_t ctx) const
        {
            arr_->setSpecBit(frame_, ctx, /*written=*/false);
        }

        /** Mark spec-written in @p ctx; maintains the index. */
        void
        setSpecWritten(std::uint32_t ctx) const
        {
            arr_->setSpecBit(frame_, ctx, /*written=*/true);
        }

        /**
         * Reset this frame to hold @p block_addr in @p state (clean,
         * no spec bits). The frame must be invalid (victims are
         * invalidated/evicted first); bumps the generation.
         */
        void
        install(Addr block_addr, CoherenceState s) const
        {
            arr_->installFrame(frame_, block_addr, s);
        }

        /** Invalidate: clears state/dirty/spec bits, bumps generation. */
        void invalidate() const { arr_->invalidateFrame(frame_); }

      private:
        friend class CacheArray;
        Line(CacheArray* arr, std::uint32_t frame)
            : arr_(arr), frame_(frame)
        {
        }

        CacheTag& tag() const { return arr_->tags_[frame_]; }

        CacheArray* arr_ = nullptr;
        std::uint32_t frame_ = 0;
    };

    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param name stat prefix, e.g. "core3.l1d"
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
               std::string name);

    /** Line holding @p addr, or a null Line on miss. No LRU update.
     *  Defined inline below: this is the hottest function in the
     *  simulator (every load issue, SB drain probe, and protocol step
     *  lands here), and the call overhead is measurable. */
    Line lookup(Addr addr);
    Line lookup(Addr addr) const;

    /**
     * O(1) revalidation of a pinned handle: the line, iff the frame's
     * generation still matches (same block, possibly different
     * state/dirty/spec bits); a null Line otherwise.
     */
    Line
    resolve(Handle h)
    {
        if (h.null() || gen_[h.frame] != h.generation ||
            !tags_[h.frame].valid()) {
            return {};
        }
        return {this, h.frame};
    }

    /** Mark @p line most recently used. */
    void touch(const Line& line);

    /**
     * Choose a victim frame in @p addr's set.
     *
     * Invalid frames win first; otherwise the LRU frame among those for
     * which @p avoid returns false; otherwise (all avoided) the overall
     * LRU frame, with @p forced_avoided set so the caller can handle the
     * speculative-eviction case (forced commit/abort).
     */
    Line findVictim(Addr addr, FunctionRef<bool(const Line&)> avoid,
                    bool* forced_avoided);

    /** Victim selection with no avoidance predicate. */
    Line findVictim(Addr addr);

    /**
     * findVictim avoiding speculative lines (the L1's predicate), with
     * the test inlined on the tag instead of called per way. A set whose
     * ways are all valid and speculative returns its LRU frame with
     * @p forced_avoided set.
     */
    Line findNonSpeculativeVictim(Addr addr, bool* forced_avoided);

    /**
     * Flash-clear all speculative read/written bits of context @p ctx
     * (commit; Figure 3 left/middle cells). Single cycle in hardware;
     * O(lines marked in @p ctx) here via the incremental index.
     */
    void flashClearSpecBits(std::uint32_t ctx);

    /**
     * Conditionally flash-invalidate every block whose speculatively-
     * written bit of context @p ctx is set, then clear that context's
     * bits (abort; Figure 3 right cell). O(lines marked in @p ctx).
     */
    void flashInvalidateSpecWritten(std::uint32_t ctx);

    /** Count of lines with any speculative bit set in context @p ctx.
     *  O(1): the incremental index is counted, not the array. */
    std::uint32_t
    countSpeculative(std::uint32_t ctx) const
    {
        IF_DBG_ASSERT(ctx < kMaxCheckpoints);
        return static_cast<std::uint32_t>(specFrames_[ctx].size());
    }

    /** Apply @p fn to every valid line. */
    void forEachValid(FunctionRef<void(const Line&)> fn);

    /**
     * Monotonic count of the mutations that can end a speculative-
     * overflow refusal: a frame installed or invalidated, or a flash op
     * that cleared bits. LRU touches, state, dirty and data writes, and
     * setting a speculative bit (which only keeps a full set full) do
     * not move it. The cache agent replays an unchanged refusal while
     * the count stands still.
     */
    std::uint64_t mutations() const { return mutations_; }

    std::uint32_t numSets() const { return num_sets_; }
    std::uint32_t numWays() const { return ways_; }
    const std::string& name() const { return name_; }

    /** Set index for @p addr (exposed for tests). */
    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr >> kBlockShift) &
                                          (num_sets_ - 1));
    }

    /** @{ Test access: LRU-stamp wrap handling. The 32-bit stamps are
     *  renormalized (within-set order preserved exactly, so victim
     *  choices are unchanged) when the touch counter saturates; tests
     *  fast-forward the counter instead of touching 4G times. */
    void debugSetLruCounter(std::uint32_t v) { lruCounter_ = v; }
    std::uint32_t debugLruCounter() const { return lruCounter_; }
    /** @} */

  private:
    friend class Line;

    /** Tag of frame @p f (set-major: set * ways + way). */
    std::uint32_t frameSet(std::uint32_t f) const { return f / ways_; }

    void setSpecBit(std::uint32_t frame, std::uint32_t ctx, bool written);
    void clearSpecCtx(std::uint32_t frame, std::uint32_t ctx);
    void installFrame(std::uint32_t frame, Addr block_addr,
                      CoherenceState s);
    void invalidateFrame(std::uint32_t frame);
    void renormalizeLru();
    /** Shared body of the findVictim family; @p avoid tests a frame. */
    template <typename Avoid>
    Line pickVictim(Addr addr, Avoid avoid, bool* forced_avoided);
#ifndef NDEBUG
    void verifySpecIndex() const;
#endif

    std::uint32_t num_sets_;
    std::uint32_t ways_;
    std::string name_;
    std::vector<CacheTag> tags_;     //!< hot lane, set-major
    std::vector<BlockData> data_;    //!< cold lane, parallel to tags_
    std::vector<std::uint32_t> gen_; //!< per-frame handle generation
    std::vector<std::uint8_t> mru_;  //!< per-set predicted way
    /** Incremental speculative index: frames with any bit in ctx, plus
     *  each frame's position in that list (kNoFrame when absent). All
     *  storage is preallocated to worst case — no steady-state allocs. */
    std::vector<std::uint32_t> specFrames_[kMaxCheckpoints];
    std::vector<std::uint32_t> specPos_[kMaxCheckpoints];
    std::vector<std::uint32_t> flashScratch_;
    std::uint32_t lruCounter_ = 0;
    std::uint64_t mutations_ = 0;
};

inline CacheArray::Line
CacheArray::lookup(Addr addr)
{
    const Addr blk = blockAlign(addr);
    const std::uint32_t set = setIndex(addr);
    const std::uint32_t base = set * ways_;
    const CacheTag* tags = &tags_[base];
    // Invalid frames hold kInvalidTagAddr, which no aligned lookup key
    // can equal — so the probes below need no valid() test.
    // MRU way first: the repeated same-block accesses of a protocol
    // step resolve on the first 16-byte tag probed.
    const std::uint32_t p = mru_[set];
    if (tags[p].blockAddr == blk)
        return {this, base + p};
    // Branch-free set scan: accumulate a per-way match bitmask (the
    // compiler can unroll/vectorize the compare loop), then pick the
    // matching way — at most one way holds a block — with countr_zero.
    std::uint64_t match = 0;
    for (std::uint32_t w = 0; w < ways_; ++w)
        match |= std::uint64_t{tags[w].blockAddr == blk} << w;
    if (match == 0)
        return {};
    const auto w = static_cast<std::uint32_t>(std::countr_zero(match));
    mru_[set] = static_cast<std::uint8_t>(w);
    return {this, base + w};
}

inline CacheArray::Line
CacheArray::lookup(Addr addr) const
{
    return const_cast<CacheArray*>(this)->lookup(addr);
}

} // namespace invisifence

#endif // INVISIFENCE_MEM_CACHE_ARRAY_HH
