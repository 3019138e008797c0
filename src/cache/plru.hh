/**
 * @file
 * Tree-PLRU and NRU replacement.
 *
 * The paper motivates the random-replacement experiments with the
 * observation that true LRU "is prohibitively expensive to implement
 * in a highly associative LLC" (Sec. I).  Real processors use cheap
 * approximations instead; these two are the classic ones and give
 * the library realistic low-cost baselines between true LRU and
 * random:
 *
 *  - Tree-PLRU: one bit per internal node of a binary tree over the
 *    ways (assoc-1 bits/set).
 *  - NRU: one reference bit per way; victim = first way with a clear
 *    bit, clearing all bits when every way is referenced.
 */

#ifndef SDBP_CACHE_PLRU_HH
#define SDBP_CACHE_PLRU_HH

#include <vector>

#include "cache/policy.hh"

namespace sdbp
{

/** Tree-based pseudo-LRU (binary decision tree, assoc-1 bits/set). */
class TreePlruPolicy final : public ReplacementPolicy
{
  public:
    TreePlruPolicy(std::uint32_t num_sets, std::uint32_t assoc);

    void onAccess(std::uint32_t set, int hit_way, SetView frames,
                  const Access &a) override;
    std::uint32_t victim(std::uint32_t set,
                         SetView frames,
                         const Access &a) override;
    void onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                const Access &a) override;
    std::string name() const override { return "tree-plru"; }

    /** State bits per set (test hook). */
    std::uint32_t bitsPerSet() const { return assoc_ - 1; }

  private:
    void touch(std::uint32_t set, std::uint32_t way);

    /** Node bits, assoc-1 per set; bit=0 -> "go left is colder". */
    std::vector<std::uint8_t> bits_;
};

/** Not-recently-used: one reference bit per way. */
class NruPolicy final : public ReplacementPolicy
{
  public:
    NruPolicy(std::uint32_t num_sets, std::uint32_t assoc);

    void onAccess(std::uint32_t set, int hit_way, SetView frames,
                  const Access &a) override;
    std::uint32_t victim(std::uint32_t set,
                         SetView frames,
                         const Access &a) override;
    void onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                const Access &a) override;
    std::string name() const override { return "nru"; }

    bool
    referenced(std::uint32_t set, std::uint32_t way) const
    {
        return ref_[set * assoc_ + way] != 0;
    }

  private:
    void markReferenced(std::uint32_t set, std::uint32_t way);

    std::vector<std::uint8_t> ref_;
};

} // namespace sdbp

#endif // SDBP_CACHE_PLRU_HH
