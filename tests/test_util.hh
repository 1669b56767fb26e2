/**
 * @file
 * Shared helpers for the test suite: tiny-system builders and scripted
 * program convenience wrappers.
 */

#ifndef INVISIFENCE_TESTS_TEST_UTIL_HH
#define INVISIFENCE_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "harness/system.hh"
#include "workload/litmus.hh"

namespace invisifence::test {

/** Address inside a dedicated test region, one block apart. */
inline Addr
taddr(std::uint32_t i)
{
    return 0x0900'0000 + static_cast<Addr>(i) * kBlockBytes;
}

/** Build a small system running the given scripts. */
inline std::unique_ptr<System>
makeScripted(std::vector<std::vector<ScriptOp>> scripts, ImplKind kind,
             SystemParams params = SystemParams::small(0))
{
    if (params.numCores == 0) {
        params = SystemParams::small(
            static_cast<std::uint32_t>(scripts.size()));
    }
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (auto& s : scripts)
        programs.push_back(std::make_unique<ScriptedProgram>(std::move(s)));
    // Idle cores run empty (immediately halting) programs.
    while (programs.size() < params.numCores) {
        programs.push_back(std::make_unique<ScriptedProgram>(
            std::vector<ScriptOp>{}));
    }
    auto sys = std::make_unique<System>(params, std::move(programs), kind);
    for (std::uint32_t i = 0; i < sys->numCores(); ++i)
        sys->core(i).enableJournal();
    return sys;
}

/** Last committed load of @p addr in core @p t's journal, or fallback. */
inline std::uint64_t
lastLoadOf(System& sys, std::uint32_t t, Addr addr,
           std::uint64_t fallback = ~0ull)
{
    const auto& j = sys.core(t).journal();
    for (auto it = j.rbegin(); it != j.rend(); ++it) {
        if (isLoadLike(it->type) && wordAlign(it->addr) == wordAlign(addr))
            return it->result;
    }
    return fallback;
}

/** All implementation kinds, for parameterized sweeps. */
inline std::vector<ImplKind>
allImplKinds()
{
    return {ImplKind::ConvSC,        ImplKind::ConvTSO,
            ImplKind::ConvRMO,       ImplKind::InvisiSC,
            ImplKind::InvisiTSO,     ImplKind::InvisiRMO,
            ImplKind::InvisiSC2Ckpt, ImplKind::Continuous,
            ImplKind::ContinuousCoV, ImplKind::Aso};
}

/** The kinds that must enforce at least TSO ordering. */
inline std::vector<ImplKind>
tsoOrStrongerKinds()
{
    return {ImplKind::ConvSC,        ImplKind::ConvTSO,
            ImplKind::InvisiSC,      ImplKind::InvisiTSO,
            ImplKind::InvisiSC2Ckpt, ImplKind::Continuous,
            ImplKind::ContinuousCoV, ImplKind::Aso};
}

/** The kinds that must enforce SC. */
inline std::vector<ImplKind>
scKinds()
{
    return {ImplKind::ConvSC, ImplKind::InvisiSC,
            ImplKind::InvisiSC2Ckpt, ImplKind::Continuous,
            ImplKind::ContinuousCoV, ImplKind::Aso};
}

/** The consistency model an implementation kind enforces (the
 *  library's Model enum orders SC < TSO < RMO, weakest-last). */
inline Model
modelOf(ImplKind k)
{
    switch (k) {
      case ImplKind::ConvTSO:
      case ImplKind::InvisiTSO:
        return Model::TSO;
      case ImplKind::ConvRMO:
      case ImplKind::InvisiRMO:
        return Model::RMO;
      default:
        return Model::SC;   // every other kind enforces SC
    }
}

/** Expect two RunResults to be bit-identical, field by field: every
 *  counter in runFields(), so none can be skipped. */
inline void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.impl, b.impl);
    EXPECT_EQ(a.seed, b.seed);
    for (const RunField& f : runFields())
        EXPECT_EQ(f.of(a), f.of(b)) << f.key;
}

} // namespace invisifence::test

#endif // INVISIFENCE_TESTS_TEST_UTIL_HH
