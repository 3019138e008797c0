/**
 * @file
 * Per-run bump arena for simulation state (DESIGN.md §15).
 *
 * A simulated run allocates a fixed set of storage lanes up front —
 * cache tag/state/metadata lanes, replacement-policy recency lanes,
 * the sampler tag array, the skewed counter banks — and then never
 * allocates again until teardown.  The general-purpose heap spreads
 * those lanes across whatever address ranges malloc has free, so
 * lanes that the per-access walk touches together can land pages
 * apart.  The arena packs them: every container constructed while an
 * ArenaScope is active draws from one contiguous slab, in exactly
 * construction order, which is also walk order (L1 lanes, then L2,
 * then LLC + policy + predictor).
 *
 * Lifetime rules (DESIGN.md §15):
 *
 *  - The Arena must outlive every container that allocated from it.
 *    Engine keeps the arena as its *first* member, so it is
 *    destroyed after the System and every lane it backs.
 *  - Arena memory is reclaimed only by destroying the arena;
 *    ArenaAllocator::deallocate on arena-backed memory is a no-op.
 *    Grow-in-place therefore wastes the old block — fine for the
 *    fixed-size lanes this is for, wrong for dynamic containers
 *    (use the heap for those: construct them outside any scope).
 *  - The scope is thread-local: concurrent runs (sweep workers) each
 *    bind their own arena; a container constructed with no active
 *    scope falls back to the global heap, so every container type
 *    below works unchanged in tools that never touch an arena.
 */

#ifndef SDBP_UTIL_ARENA_HH
#define SDBP_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace sdbp
{

/** Bump allocator backing one simulated run's fixed storage. */
class Arena
{
  public:
    /** Chunk granularity; a run's lanes are a few MiB at most. */
    static constexpr std::size_t kDefaultChunk = std::size_t(1)
        << 20;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunk)
        : chunkBytes_(chunk_bytes)
    {
    }

    ~Arena()
    {
        Chunk *c = head_;
        while (c != nullptr) {
            Chunk *next = c->next;
            ::operator delete(c);
            c = next;
        }
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Bump-allocate @p bytes at @p align (never freed early). */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        std::uintptr_t p = reinterpret_cast<std::uintptr_t>(cur_);
        p = (p + align - 1) & ~(std::uintptr_t(align) - 1);
        if (p + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
            grow(bytes + align);
            p = reinterpret_cast<std::uintptr_t>(cur_);
            p = (p + align - 1) & ~(std::uintptr_t(align) - 1);
        }
        cur_ = reinterpret_cast<char *>(p + bytes);
        allocated_ += bytes;
        return reinterpret_cast<void *>(p);
    }

    /** Payload bytes handed out (excludes alignment/chunk slack). */
    std::size_t bytesAllocated() const { return allocated_; }
    /** Total bytes reserved from the heap. */
    std::size_t bytesReserved() const { return reserved_; }

  private:
    struct Chunk
    {
        Chunk *next;
    };

    void
    grow(std::size_t min_bytes)
    {
        const std::size_t payload =
            min_bytes > chunkBytes_ ? min_bytes : chunkBytes_;
        const std::size_t total = sizeof(Chunk) + payload;
        auto *c = static_cast<Chunk *>(::operator new(total));
        c->next = head_;
        head_ = c;
        cur_ = reinterpret_cast<char *>(c) + sizeof(Chunk);
        end_ = reinterpret_cast<char *>(c) + total;
        reserved_ += total;
    }

    Chunk *head_ = nullptr;
    char *cur_ = nullptr;
    char *end_ = nullptr;
    std::size_t chunkBytes_;
    std::size_t allocated_ = 0;
    std::size_t reserved_ = 0;
};

/**
 * RAII binding of the calling thread's current arena.  Containers
 * whose allocator is ArenaAllocator capture the binding at
 * construction; the scope itself only needs to span construction.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena &arena) : prev_(tlCurrent)
    {
        tlCurrent = &arena;
    }

    ~ArenaScope() { tlCurrent = prev_; }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    /** The calling thread's active arena (nullptr = heap). */
    static Arena *current() { return tlCurrent; }

  private:
    Arena *prev_;
    // constinit + inline: constant-initialized and defined here, so
    // every TU reaches the binding directly rather than through a
    // thread_local init wrapper (pool threads failed UBSan's null
    // store check through that wrapper).
    static inline constinit thread_local Arena *tlCurrent = nullptr;
};

/**
 * std allocator that draws from the arena bound when the allocator
 * object was constructed (the heap when none was).  deallocate is a
 * no-op for arena memory — see the lifetime rules above.
 */
template <class T>
class ArenaAllocator
{
  public:
    using value_type = T;

    ArenaAllocator() noexcept : arena_(ArenaScope::current()) {}

    template <class U>
    ArenaAllocator(const ArenaAllocator<U> &other) noexcept
        : arena_(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena_ != nullptr) {
            return static_cast<T *>(
                arena_->allocate(bytes, alignof(T)));
        }
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        if (arena_ == nullptr)
            ::operator delete(p);
    }

    Arena *arena() const { return arena_; }

    template <class U>
    bool
    operator==(const ArenaAllocator<U> &other) const noexcept
    {
        return arena_ == other.arena();
    }

  private:
    Arena *arena_;
};

/**
 * The container type of every fixed-size storage lane: heap-backed
 * by default, arena-backed when constructed under an ArenaScope.
 */
template <class T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

} // namespace sdbp

#endif // SDBP_UTIL_ARENA_HH
