#include "cache/plru.hh"

#include <cassert>

#include "util/bitops.hh"

namespace sdbp
{

TreePlruPolicy::TreePlruPolicy(std::uint32_t num_sets,
                               std::uint32_t assoc)
    : ReplacementPolicy(num_sets, assoc),
      bits_(static_cast<std::size_t>(num_sets) * (assoc - 1), 0)
{
    assert(isPowerOfTwo(assoc) && assoc >= 2 &&
           "tree-PLRU needs a power-of-two associativity");
}

void
TreePlruPolicy::touch(std::uint32_t set, std::uint32_t way)
{
    // Walk from the root; at each node point the bit AWAY from the
    // touched way.  Nodes are stored heap-style: node 0 is the root,
    // children of n are 2n+1 / 2n+2.
    auto *base = &bits_[static_cast<std::size_t>(set) * (assoc_ - 1)];
    std::uint32_t node = 0;
    std::uint32_t lo = 0, hi = assoc_;
    while (hi - lo > 1) {
        const std::uint32_t mid = (lo + hi) / 2;
        if (way < mid) {
            base[node] = 1; // cold side is right
            node = 2 * node + 1;
            hi = mid;
        } else {
            base[node] = 0; // cold side is left
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

void
TreePlruPolicy::onAccess(std::uint32_t set, int hit_way,
                         SetView frames, const Access &a)
{
    (void)frames;
    (void)a;
    if (hit_way >= 0)
        touch(set, static_cast<std::uint32_t>(hit_way));
}

std::uint32_t
TreePlruPolicy::victim(std::uint32_t set,
                       SetView frames,
                       const Access &a)
{
    (void)frames;
    (void)a;
    // Follow the cold pointers from the root.
    const auto *base =
        &bits_[static_cast<std::size_t>(set) * (assoc_ - 1)];
    std::uint32_t node = 0;
    std::uint32_t lo = 0, hi = assoc_;
    while (hi - lo > 1) {
        const std::uint32_t mid = (lo + hi) / 2;
        if (base[node] == 0) {
            node = 2 * node + 1;
            hi = mid;
        } else {
            node = 2 * node + 2;
            lo = mid;
        }
    }
    return lo;
}

void
TreePlruPolicy::onFill(std::uint32_t set, std::uint32_t way,
                       SetView frames, const Access &a)
{
    (void)frames;
    (void)a;
    touch(set, way);
}

NruPolicy::NruPolicy(std::uint32_t num_sets, std::uint32_t assoc)
    : ReplacementPolicy(num_sets, assoc),
      ref_(static_cast<std::size_t>(num_sets) * assoc, 0)
{
}

void
NruPolicy::markReferenced(std::uint32_t set, std::uint32_t way)
{
    auto *base = &ref_[static_cast<std::size_t>(set) * assoc_];
    base[way] = 1;
    for (std::uint32_t w = 0; w < assoc_; ++w)
        if (!base[w])
            return;
    // All referenced: clear everyone else (keep this way's bit).
    for (std::uint32_t w = 0; w < assoc_; ++w)
        base[w] = w == way;
}

void
NruPolicy::onAccess(std::uint32_t set, int hit_way, SetView frames,
                    const Access &a)
{
    (void)frames;
    (void)a;
    if (hit_way >= 0)
        markReferenced(set, static_cast<std::uint32_t>(hit_way));
}

std::uint32_t
NruPolicy::victim(std::uint32_t set, SetView frames,
                  const Access &a)
{
    (void)frames;
    (void)a;
    const auto *base = &ref_[static_cast<std::size_t>(set) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w)
        if (!base[w])
            return w;
    return 0; // unreachable: markReferenced always leaves a clear bit
}

void
NruPolicy::onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                  const Access &a)
{
    (void)frames;
    (void)a;
    markReferenced(set, way);
}

} // namespace sdbp
