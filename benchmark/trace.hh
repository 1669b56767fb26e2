/**
 * @file
 * Outside-in layer trace for ifbench.
 *
 * Spans are recorded at layer boundaries that the simulator already
 * exposes publicly, by interposing on them rather than by editing the
 * simulator:
 *  - workload.fetch: a forwarding ThreadProgram around each
 *    SyntheticProgram times fetchNext() (and counts restoreFrom());
 *  - coh.agent.deliver / coh.dir.deliver: Network::attach() sinks that
 *    call CacheAgent::deliver() / DirectorySlice::deliver();
 *  - cpu.consistency.listener: a forwarding CoherenceListener installed
 *    with CacheAgent::setListener() in front of each ConsistencyImpl.
 *
 * Spans nest (a listener call made inside an agent delivery is its
 * child); a span's self time is its duration minus its children's, and
 * the per-layer self times plus the untraced residual add up to the
 * traced window exactly. Only per-layer sums are kept, never individual
 * spans: a point executes millions of them.
 */

#ifndef IFBENCH_TRACE_HH
#define IFBENCH_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "coh/listener.hh"
#include "cpu/program.hh"
#include "harness/system.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace ifbench {

/** Host timestamp in ticks: the TSC where there is one (cheaper to read
 *  than steady_clock, at millions of spans per point), else ns. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

enum class Layer : std::uint8_t
{
    Fetch,          //!< workload.fetch
    AgentDeliver,   //!< coh.agent.deliver
    DirDeliver,     //!< coh.dir.deliver
    Listener,       //!< cpu.consistency.listener
};
constexpr std::size_t kLayers = 4;

/** Per-layer span sums over one traced window. */
struct LayerTotals
{
    std::array<std::uint64_t, kLayers> calls{};
    std::array<std::uint64_t, kLayers> selfTicks{};
    std::uint64_t topTicks = 0;   //!< summed durations of outermost spans
    std::uint64_t restores = 0;   //!< ThreadProgram::restoreFrom calls
};

class Tracer
{
  public:
    void
    begin(Layer layer)
    {
        if (depth_ == stack_.size()) {
            std::fprintf(stderr, "ifbench: span nesting deeper than %zu\n",
                         stack_.size());
            std::abort();
        }
        stack_[depth_++] = Frame{layer, ticks(), 0};
    }

    void
    end()
    {
        const Frame f = stack_[--depth_];
        const std::uint64_t dur = ticks() - f.start;
        const auto l = static_cast<std::size_t>(f.layer);
        ++totals_.calls[l];
        totals_.selfTicks[l] += dur - f.childTicks;
        if (depth_ > 0)
            stack_[depth_ - 1].childTicks += dur;
        else
            totals_.topTicks += dur;
    }

    void countRestore() { ++totals_.restores; }

    /** Drop everything recorded so far (call between run() calls, when
     *  no span can be open). */
    void reset() { totals_ = LayerTotals{}; }

    const LayerTotals& totals() const { return totals_; }

  private:
    struct Frame
    {
        Layer layer = Layer::Fetch;
        std::uint64_t start = 0;
        std::uint64_t childTicks = 0;
    };
    std::array<Frame, 16> stack_{};
    std::size_t depth_ = 0;
    LayerTotals totals_{};
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer& t, Layer layer) : t_(t) { t_.begin(layer); }
    ~Span() { t_.end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& t_;
};

/** Forwarding ThreadProgram: times fetchNext, counts restoreFrom. */
class TracedProgram final : public invisifence::ThreadProgram
{
  public:
    TracedProgram(std::unique_ptr<invisifence::ThreadProgram> inner,
                  Tracer& t)
        : inner_(std::move(inner)), t_(t)
    {
    }

    invisifence::Instruction
    fetchNext() override
    {
        Span s(t_, Layer::Fetch);
        return inner_->fetchNext();
    }

    void
    snapshotTo(invisifence::ProgSnapshot& out) const override
    {
        inner_->snapshotTo(out);
    }

    void
    restoreFrom(const invisifence::ProgSnapshot& in) override
    {
        t_.countRestore();
        inner_->restoreFrom(in);
    }

    void
    setLastResult(std::uint64_t value) override
    {
        inner_->setLastResult(value);
    }

  private:
    std::unique_ptr<invisifence::ThreadProgram> inner_;
    Tracer& t_;
};

/** Forwarding CoherenceListener: times every agent-to-consistency call. */
class TracedListener final : public invisifence::CoherenceListener
{
  public:
    TracedListener(invisifence::CoherenceListener& inner, Tracer& t)
        : inner_(inner), t_(t)
    {
    }
    TracedListener(const TracedListener&) = delete;
    TracedListener& operator=(const TracedListener&) = delete;

    ExtAction
    onSpecConflict(invisifence::Addr block, bool wants_write) override
    {
        Span s(t_, Layer::Listener);
        return inner_.onSpecConflict(block, wants_write);
    }

    bool
    resolveSpecEviction(invisifence::Addr block) override
    {
        Span s(t_, Layer::Listener);
        return inner_.resolveSpecEviction(block);
    }

    void
    resolveSpecEvictionHard(invisifence::Addr block) override
    {
        Span s(t_, Layer::Listener);
        inner_.resolveSpecEvictionHard(block);
    }

    void
    onInvalidateApplied(invisifence::Addr block) override
    {
        Span s(t_, Layer::Listener);
        inner_.onInvalidateApplied(block);
    }

    void
    onL1Install(invisifence::Addr block) override
    {
        Span s(t_, Layer::Listener);
        inner_.onL1Install(block);
    }

  private:
    invisifence::CoherenceListener& inner_;
    Tracer& t_;
};

/**
 * Interpose the delivery sinks and listeners of @p sys. @p listeners
 * receives one TracedListener per core and must outlive @p sys's runs.
 */
inline void
attachTracing(invisifence::System& sys, Tracer& t,
              std::vector<std::unique_ptr<TracedListener>>& listeners)
{
    using invisifence::Msg;
    using invisifence::Unit;
    for (std::uint32_t n = 0; n < sys.numCores(); ++n) {
        invisifence::CacheAgent& agent = sys.agent(n);
        invisifence::DirectorySlice& dir = sys.directory(n);
        sys.network().attach(n, Unit::Agent, [&t, &agent](const Msg& m) {
            Span s(t, Layer::AgentDeliver);
            agent.deliver(m);
        });
        sys.network().attach(n, Unit::Directory, [&t, &dir](const Msg& m) {
            Span s(t, Layer::DirDeliver);
            dir.deliver(m);
        });
        listeners.push_back(
            std::make_unique<TracedListener>(sys.impl(n), t));
        agent.setListener(listeners.back().get());
    }
}

} // namespace ifbench

#endif // IFBENCH_TRACE_HH
