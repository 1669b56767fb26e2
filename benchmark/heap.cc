#include "heap.hh"

#include <algorithm>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {

std::uint64_t g_allocations = 0;
std::size_t g_live = 0;
std::size_t g_peak = 0;

void*
counted(void* p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    ++g_allocations;
    g_live += malloc_usable_size(p);
    if (g_live > g_peak)
        g_peak = g_live;
    return p;
}

void*
allocate(std::size_t size)
{
    return counted(std::malloc(std::max<std::size_t>(size, 1)));
}

void*
allocate(std::size_t size, std::align_val_t align)
{
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded =
        (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    return counted(std::aligned_alloc(a, rounded));
}

void
release(void* p) noexcept
{
    if (p == nullptr)
        return;
    g_live -= malloc_usable_size(p);
    std::free(p);
}

} // namespace

namespace ifbench::heap {

std::uint64_t allocations() { return g_allocations; }
std::size_t peakBytes() { return g_peak; }
void resetPeak() { g_peak = g_live; }

} // namespace ifbench::heap

// The replacements pair malloc with free by design; GCC's
// mismatched-new-delete heuristic cannot see that both sides are
// replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }

void*
operator new(std::size_t size, std::align_val_t align)
{
    return allocate(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return allocate(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

#pragma GCC diagnostic pop
