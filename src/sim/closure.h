/**
 * @file
 * EventClosure: the event queue's callable type.
 *
 * std::function is the wrong tool for a discrete-event hot path: its
 * inline buffer is small (16 bytes on libstdc++) and restricted to
 * trivially-copyable callables, so the typical simulator closure — a
 * lambda capturing a device pointer plus a packet or a couple of ids —
 * heap-allocates on every schedule(). EventClosure is a move-only
 * type-erased callable with a 48-byte inline buffer sized for the
 * repo's event lambdas (a CrossLink delivery captures a direction
 * pointer + NetPacket = 32 bytes), so the schedule->fire cycle does
 * zero mallocs. Callables that do not fit (or are not nothrow-movable)
 * transparently fall back to the heap.
 *
 * Dispatch is one indirect call through a per-type operations table —
 * no virtual destructors, no shared_ptr control blocks.
 */

#ifndef SVTSIM_SIM_CLOSURE_H
#define SVTSIM_SIM_CLOSURE_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace svtsim {

class EventClosure
{
  public:
    /** Inline capture capacity; larger callables go to the heap. */
    static constexpr std::size_t inlineCapacity = 48;

    EventClosure() = default;

    /** Implicit, so call sites keep passing plain lambdas. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventClosure> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventClosure(F &&fn)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(fn));
            ops_ = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(buf_) = new D(std::forward<F>(fn));
            ops_ = &heapOps<D>;
        }
    }

    EventClosure(EventClosure &&other) noexcept { moveFrom(other); }

    EventClosure &
    operator=(EventClosure &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventClosure(const EventClosure &) = delete;
    EventClosure &operator=(const EventClosure &) = delete;

    ~EventClosure() { reset(); }

    /** Destroy the held callable (and release what it captured). */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Whether the callable lives in the inline buffer (tests). */
    bool
    storedInline() const
    {
        return ops_ != nullptr && ops_->isInline;
    }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *buf);
        void (*destroy)(void *buf);
        /** Move-construct into @p dst's raw buffer, destroy @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        bool isInline;
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= inlineCapacity &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inlineOps{
        [](void *buf) { (*std::launder(reinterpret_cast<D *>(buf)))(); },
        [](void *buf) { std::launder(reinterpret_cast<D *>(buf))->~D(); },
        [](void *dst, void *src) noexcept {
            D *s = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        },
        true,
    };

    template <typename D>
    static constexpr Ops heapOps{
        [](void *buf) { (**reinterpret_cast<D **>(buf))(); },
        [](void *buf) { delete *reinterpret_cast<D **>(buf); },
        [](void *dst, void *src) noexcept {
            *reinterpret_cast<D **>(dst) = *reinterpret_cast<D **>(src);
        },
        false,
    };

    void
    moveFrom(EventClosure &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineCapacity];
    const Ops *ops_ = nullptr;
};

} // namespace svtsim

#endif // SVTSIM_SIM_CLOSURE_H
