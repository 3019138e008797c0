#include "cache/lru.hh"

#include <string>

#include "util/logging.hh"

namespace sdbp
{

LruPolicy::LruPolicy(std::uint32_t num_sets, std::uint32_t assoc)
    : ReplacementPolicy(num_sets, assoc),
      order_(static_cast<std::size_t>(num_sets) * assoc +
             simd::kStackLaneBytes)
{
    if (assoc > 255)
        fatal("LRU: associativity " + std::to_string(assoc) +
              " exceeds the 255 ways a byte order lane can name");
    // Initial order: way w sits at stack position w, i.e. way 0 is
    // MRU.
    for (std::uint32_t s = 0; s < num_sets; ++s)
        for (std::uint32_t w = 0; w < assoc; ++w)
            order_[s * assoc + w] = static_cast<std::uint8_t>(w);
}

} // namespace sdbp
