/**
 * @file
 * The one fill-completion callback type: MSHR waiter lists, the event
 * queue's batched retry records (local fills and refused-fill retries)
 * and clean-writeback completions all carry a FillWaiter.
 */

#ifndef INVISIFENCE_SIM_FILL_WAITER_HH
#define INVISIFENCE_SIM_FILL_WAITER_HH

#include <cstdint>

namespace invisifence {

/**
 * Typed fill-completion callback: a plain function pointer applied to
 * {owner, arg}. Trivially copyable and equality-comparable, so merged
 * waiters for the same wake action deduplicate structurally. The load
 * path uses {Core's wake thunk, core, block | write-wake bit}.
 */
struct FillWaiter
{
    using Fn = void (*)(void* owner, std::uint64_t arg);

    Fn fn = nullptr;
    void* owner = nullptr;
    std::uint64_t arg = 0;

    explicit operator bool() const { return fn != nullptr; }
    bool operator==(const FillWaiter&) const = default;

    void
    operator()() const
    {
        if (fn)
            fn(owner, arg);
    }
};

} // namespace invisifence

#endif // INVISIFENCE_SIM_FILL_WAITER_HH
