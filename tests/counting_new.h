/**
 * @file
 * Global allocation counter for zero-allocation lock-in tests. Replaces
 * the global operator new/delete family with malloc/free wrappers that
 * count every allocation in g_allocCount. Include it from exactly one
 * translation unit per test binary; only deltas measured around a
 * steady-state loop are meaningful.
 */

#ifndef SVTSIM_TESTS_COUNTING_NEW_H
#define SVTSIM_TESTS_COUNTING_NEW_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

static std::atomic<std::uint64_t> g_allocCount{0};

static void *
countedAlloc(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    ++g_allocCount;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                     (n + static_cast<std::size_t>(a) - 1) &
                                         ~(static_cast<std::size_t>(a) - 1)))
        return p;
    throw std::bad_alloc();
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // SVTSIM_TESTS_COUNTING_NEW_H
