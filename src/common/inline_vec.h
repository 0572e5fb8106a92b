#ifndef LEASEOS_COMMON_INLINE_VEC_H
#define LEASEOS_COMMON_INLINE_VEC_H

/**
 * @file
 * Small inline vector for hot-path aggregation (see DESIGN.md §8).
 *
 * The power layer constantly rebuilds tiny collections — a channel's
 * per-uid shares, the set of wakelock holders, the running task list —
 * whose size is almost always a handful. std::vector / std::map put every
 * one of those rebuilds on the allocator; InlineVec keeps the first N
 * elements in the object (or on the stack, for temporaries) and only
 * spills to the heap past N. clear() never releases the spill buffer, so
 * even a spilled container stops allocating once it has seen its high-water
 * mark — the steady state allocates nothing either way.
 *
 * Deliberately minimal: push/emplace, ordered erase, clear, indexing, and
 * iteration. Ordered erase (not swap-and-pop) because callers iterate in
 * insertion order and that order feeds deterministic floating-point
 * accumulation — see the determinism contract in DESIGN.md §1.
 */

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace leaseos::common {

template <typename T, std::size_t N>
class InlineVec
{
    static_assert(N > 0, "inline capacity must be non-zero");
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "InlineVec requires nothrow-movable elements");

  public:
    InlineVec() = default;
    InlineVec(const InlineVec &) = delete;
    InlineVec &operator=(const InlineVec &) = delete;

    InlineVec(InlineVec &&other) noexcept { *this = std::move(other); }

    InlineVec &
    operator=(InlineVec &&other) noexcept
    {
        if (this == &other) return *this;
        clear();
        if (other.data_ != other.inlinePtr()) {
            // Steal the spill buffer wholesale.
            if (data_ != inlinePtr())
                ::operator delete(data_, std::align_val_t(alignof(T)));
            data_ = other.data_;
            cap_ = other.cap_;
            size_ = other.size_;
            other.data_ = other.inlinePtr();
            other.cap_ = N;
            other.size_ = 0;
        } else {
            for (std::size_t i = 0; i < other.size_; ++i)
                push_back(std::move(other.data_[i]));
            other.clear();
        }
        return *this;
    }

    ~InlineVec()
    {
        clear();
        if (data_ != inlinePtr())
            ::operator delete(data_, std::align_val_t(alignof(T)));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }
    /** True while no element has ever spilled to the heap. */
    bool isInline() const { return data_ == inlinePtr(); }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &back() { return data_[size_ - 1]; }

    std::span<const T> span() const { return {data_, size_}; }

    void
    push_back(T value)
    {
        if (size_ == cap_) grow();
        ::new (static_cast<void *>(data_ + size_)) T(std::move(value));
        ++size_;
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_) grow();
        T *slot = ::new (static_cast<void *>(data_ + size_))
            T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_back()
    {
        assert(size_ > 0);
        data_[--size_].~T();
    }

    /** Remove element @p i, preserving the order of the rest. */
    void
    erase(std::size_t i)
    {
        assert(i < size_);
        for (std::size_t j = i + 1; j < size_; ++j)
            data_[j - 1] = std::move(data_[j]);
        data_[size_ - 1].~T();
        --size_;
    }

    /** Destroy all elements; spill capacity (if any) is retained. */
    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
        size_ = 0;
    }

  private:
    void
    grow()
    {
        std::size_t newCap = cap_ * 2;
        T *fresh = static_cast<T *>(::operator new(
            newCap * sizeof(T), std::align_val_t(alignof(T))));
        for (std::size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void *>(fresh + i)) T(std::move(data_[i]));
            data_[i].~T();
        }
        if (data_ != inlinePtr())
            ::operator delete(data_, std::align_val_t(alignof(T)));
        data_ = fresh;
        cap_ = newCap;
    }

    T *inlinePtr() { return std::launder(reinterpret_cast<T *>(buf_)); }
    const T *
    inlinePtr() const
    {
        return std::launder(reinterpret_cast<const T *>(buf_));
    }

    alignas(T) unsigned char buf_[N * sizeof(T)];
    T *data_ = inlinePtr();
    std::size_t size_ = 0;
    std::size_t cap_ = N;
};

/**
 * Sort @p v ascending and drop repeats, the order a std::set gives, and
 * view the result.
 */
template <typename T, std::size_t N>
std::span<const T>
sortUnique(InlineVec<T, N> &v)
{
    std::sort(v.begin(), v.end());
    const T *last = std::unique(v.begin(), v.end());
    while (v.end() != last) v.pop_back();
    return v.span();
}

} // namespace leaseos::common

#endif // LEASEOS_COMMON_INLINE_VEC_H
