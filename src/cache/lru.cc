#include "cache/lru.hh"

#include <cassert>

namespace sdbp
{

LruPolicy::LruPolicy(std::uint32_t num_sets, std::uint32_t assoc)
    : ReplacementPolicy(num_sets, assoc), stamp_(num_sets * assoc),
      high_(num_sets, 0), low_(num_sets)
{
    // Initial order: way w sits at stack position w, i.e. way 0 is
    // MRU.  Stamps within a set must be distinct.
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        for (std::uint32_t w = 0; w < assoc; ++w)
            stamp_[s * assoc + w] = -static_cast<std::int64_t>(w);
        low_[s] = -static_cast<std::int64_t>(assoc - 1);
    }
}

void
LruPolicy::moveTo(std::uint32_t set, std::uint32_t way,
                  std::uint32_t target_pos)
{
    assert(target_pos == 0 || target_pos == assoc_ - 1);
    if (target_pos == 0)
        stamp_[set * assoc_ + way] = ++high_[set];
    else
        stamp_[set * assoc_ + way] = --low_[set];
}

} // namespace sdbp
