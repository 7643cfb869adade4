#pragma once

/// \file arena.hpp
/// \brief Per-thread scratch arenas: bump-pointer allocation for the short-
///        lived, trivially-destructible temporaries the physical-design hot
///        loops churn through (candidate tile lists, routing search tables).
///
/// Usage pattern is strictly LIFO and region-scoped:
///
/// \code
/// auto& arena = trt::scratch();
/// {
///     trt::scratch_region region{arena};          // marks the high-water point
///     trt::scratch_buffer<coordinate> cand{arena};
///     cand.push_back(...);                        // bump-allocates, grows geometrically
/// }                                               // region rewinds the arena
/// \endcode
///
/// The arena keeps its blocks while alive — they are reused across regions,
/// and a spare block too small for a request is swapped for a larger one —
/// so steady-state hot loops allocate nothing, and a thread holds about its
/// largest working set. Because rewinding does not run destructors,
/// scratch_buffer and allocate_array are restricted to trivially copyable +
/// trivially destructible element types at compile time. Each thread gets
/// its own arena (thread_local), so there is no locking anywhere on this
/// path.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace mnt::trt
{

class scratch_arena
{
  public:
    static constexpr std::size_t default_block_bytes = 64u * 1024u;

    explicit scratch_arena(std::size_t block_bytes = default_block_bytes) : block_size{block_bytes} {}

    scratch_arena(const scratch_arena&)            = delete;
    scratch_arena& operator=(const scratch_arena&) = delete;

    /// Bump-allocates \p bytes aligned to \p align (a power of two). Falls
    /// through to a fresh block when the current one cannot fit the request.
    [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align)
    {
        if (block_index < blocks.size())
        {
            const auto aligned = align_up(offset, align);
            if (aligned + bytes <= blocks[block_index].size)
            {
                offset = aligned + bytes;
                if (total_in_use() > high_water)
                {
                    high_water = total_in_use();
                }
                return blocks[block_index].data.get() + aligned;
            }
        }
        return allocate_slow(bytes, align);
    }

    /// Uninitialized storage for \p n objects of the trivial type \p T,
    /// valid until the arena rewinds past this allocation.
    template <typename T>
    [[nodiscard]] T* allocate_array(const std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                      "arena arrays are never constructed or destroyed");
        return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    }

    struct marker
    {
        std::size_t block{0};
        std::size_t offset{0};
    };

    [[nodiscard]] marker mark() const noexcept { return {block_index, offset}; }

    /// Rewinds to a previous mark; all allocations made after it are dead.
    /// Blocks stay allocated for reuse.
    void rewind(marker m) noexcept
    {
        block_index = m.block;
        offset      = m.offset;
    }

    /// Bytes currently allocated out (across all blocks up to the cursor).
    [[nodiscard]] std::size_t total_in_use() const noexcept
    {
        std::size_t sum = 0;
        for (std::size_t i = 0; i < block_index && i < blocks.size(); ++i)
        {
            sum += blocks[i].size;
        }
        return sum + offset;
    }

    /// Peak bytes ever in use — a sizing diagnostic exported by the runtime.
    [[nodiscard]] std::size_t high_water_bytes() const noexcept { return high_water; }

    /// Total bytes reserved from the heap.
    [[nodiscard]] std::size_t reserved_bytes() const noexcept
    {
        std::size_t sum = 0;
        for (const auto& b : blocks)
        {
            sum += b.size;
        }
        return sum;
    }

  private:
    struct block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t                  size;
    };

    [[nodiscard]] static std::size_t align_up(std::size_t v, std::size_t align) noexcept
    {
        return (v + align - 1) & ~(align - 1);
    }

    void* allocate_slow(std::size_t bytes, std::size_t align)
    {
        // move on to the next block. Blocks past the cursor hold no live
        // allocations (regions rewind LIFO), so a spare block too small for
        // the request is replaced rather than skipped: the arena keeps its
        // largest requests, not one block per size it has ever seen.
        // Oversized requests get a block of exactly the needed size.
        if (block_index < blocks.size())
        {
            ++block_index;
        }
        if (block_index == blocks.size() || blocks[block_index].size < bytes)
        {
            const auto sz = bytes + align > block_size ? bytes + align : block_size;
            auto fresh = block{std::make_unique<std::byte[]>(sz), sz};
            if (block_index == blocks.size())
            {
                blocks.push_back(std::move(fresh));
            }
            else
            {
                blocks[block_index] = std::move(fresh);
            }
        }
        offset = bytes;
        if (total_in_use() > high_water)
        {
            high_water = total_in_use();
        }
        return blocks[block_index].data.get();
    }

    std::vector<block> blocks{};
    std::size_t        block_index{0};
    std::size_t        offset{0};
    std::size_t        block_size;
    std::size_t        high_water{0};
};

/// The calling thread's scratch arena (created on first use).
[[nodiscard]] scratch_arena& scratch();

/// RAII region: marks on construction, rewinds on destruction. Regions must
/// nest LIFO (natural with scoped locals).
class scratch_region
{
  public:
    explicit scratch_region(scratch_arena& a) : arena{a}, saved{a.mark()} {}
    ~scratch_region() { arena.rewind(saved); }

    scratch_region(const scratch_region&)            = delete;
    scratch_region& operator=(const scratch_region&) = delete;

  private:
    scratch_arena&        arena;
    scratch_arena::marker saved;
};

/// A minimal push_back-able buffer living in a scratch arena. Grows by
/// bump-allocating a larger span and memcpy'ing — the abandoned span is
/// reclaimed when the enclosing scratch_region rewinds.
template <typename T>
class scratch_buffer
{
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "scratch_buffer elements are never destroyed on rewind");

  public:
    explicit scratch_buffer(scratch_arena& a, std::size_t initial_capacity = 16) : arena{&a}
    {
        cap  = initial_capacity > 0 ? initial_capacity : 1;
        data = static_cast<T*>(arena->allocate(cap * sizeof(T), alignof(T)));
    }

    void push_back(const T& v)
    {
        if (count == cap)
        {
            grow();
        }
        data[count++] = v;
    }

    void clear() noexcept { count = 0; }

    [[nodiscard]] std::size_t size() const noexcept { return count; }
    [[nodiscard]] bool        empty() const noexcept { return count == 0; }
    [[nodiscard]] T&          operator[](std::size_t i) noexcept { return data[i]; }
    [[nodiscard]] const T&    operator[](std::size_t i) const noexcept { return data[i]; }
    [[nodiscard]] T*          begin() noexcept { return data; }
    [[nodiscard]] T*          end() noexcept { return data + count; }
    [[nodiscard]] const T*    begin() const noexcept { return data; }
    [[nodiscard]] const T*    end() const noexcept { return data + count; }

  private:
    void grow()
    {
        const auto new_cap  = cap * 2;
        auto*      new_data = static_cast<T*>(arena->allocate(new_cap * sizeof(T), alignof(T)));
        std::memcpy(new_data, data, count * sizeof(T));
        data = new_data;
        cap  = new_cap;
    }

    scratch_arena* arena;
    T*             data{nullptr};
    std::size_t    count{0};
    std::size_t    cap{0};
};

}  // namespace mnt::trt
