/**
 * @file
 * Global History Buffer prefetcher (Nesbit & Smith, HPCA 2004) in its two
 * delta-correlating flavors evaluated by the paper: Global/DC (one global
 * access stream) and PC/DC (streams localised by the load PC).
 *
 * The GHB is a circular buffer of recent access addresses; each entry is
 * chained to the previous entry of the same index-table key. Delta
 * correlation looks at the newest kMaxChain entries of the key's chain,
 * takes the last `history_length - 1` deltas as a pattern, finds that
 * pattern's previous occurrence in the chain, and replays the deltas
 * that followed it as prefetch candidates.
 *
 * Following the original design, the GHB trains on the L1 miss stream
 * (plus accesses that hit prefetched lines, so training continues once
 * prefetching becomes effective).
 *
 * The search for the previous occurrence does not walk the chain. A
 * host-side pattern index maps (index key, delta pattern) to the newest
 * buffer entry that ended with that pattern; one lookup plus three O(1)
 * checks finds exactly the occurrence a bounded backward search of the
 * chain would find (DESIGN.md §6, "The GHB hot path"). The index is a
 * simulator accelerator, not modelled hardware storage.
 */

#ifndef CSP_PREFETCH_GHB_H
#define CSP_PREFETCH_GHB_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "prefetch/prefetcher.h"

namespace csp::prefetch {

/** Index-table localisation of the GHB. */
enum class GhbFlavor
{
    GlobalDC, ///< one global stream ("G/DC")
    PcDC,     ///< streams localised by load PC ("PC/DC")
};

/** See file comment. */
class GhbPrefetcher final : public Prefetcher
{
  public:
    GhbPrefetcher(const GhbConfig &config, GhbFlavor flavor,
                  unsigned line_bytes = 64);

    std::string name() const override;

    void observe(const AccessInfo &info,
                 std::vector<PrefetchRequest> &out) override;

    void registerStats(stats::Registry &registry) const override;

  private:
    static constexpr std::uint32_t kNoSlot = ~0u;
    /// Delta-correlation window: the newest entries of a chain searched
    /// for an earlier occurrence of the current pattern.
    static constexpr std::size_t kMaxChain = 64;

    /**
     * One buffer slot. The modelled state is `line` plus the link to the
     * predecessor; the rest is host bookkeeping for the pattern index.
     * (chain, ordinal) names an entry uniquely for the whole run, so a
     * slot reached through a link is still that entry exactly when its
     * chain and ordinal are the expected ones.
     */
    struct GhbEntry
    {
        Addr line = 0;
        Addr key = 0;                  ///< index-table key it was filed under
        std::uint64_t chain = ~0ull;   ///< id of the chain it belongs to
        std::uint64_t ordinal = 0;     ///< 0 for the first entry of a chain
        std::uint32_t prev = kNoSlot;  ///< predecessor's slot
        std::uint32_t next = kNoSlot;  ///< successor's slot
        /// Slot of the oldest line of this entry's pattern; kNoSlot when
        /// the entry had no full, fresh pattern and was not indexed.
        std::uint32_t origin = kNoSlot;
        std::uint32_t hash = 0;        ///< hash of (key, pattern)
    };

    struct IndexEntry
    {
        Addr key_tag = 0;
        bool valid = false;
        std::uint64_t head = 0;           ///< global position of newest entry
        std::uint32_t head_slot = kNoSlot;
    };

    /** Open-addressing slot of the pattern index. */
    struct PatternSlot
    {
        std::uint32_t hash = 0;
        std::uint32_t entry = kNoSlot; ///< buffer slot; kNoSlot = empty
    };

    Addr indexKey(const AccessInfo &info) const;

    const std::int64_t *patternOf(std::uint32_t slot) const
    {
        return patterns_.data() + std::size_t{slot} * pattern_length_;
    }

    std::int64_t *patternOf(std::uint32_t slot)
    {
        return patterns_.data() + std::size_t{slot} * pattern_length_;
    }

    /** Fill the pattern of the entry at @p slot by walking its last
     *  pattern_length_ links; false if the chain is too short or a link
     *  has been overwritten. */
    bool buildPattern(std::uint32_t slot);

    /** File the entry at @p slot (whose pattern is built) in the pattern
     *  index; returns the entry it displaces there (the previous newest
     *  occurrence of the same key and pattern) or kNoSlot. */
    std::uint32_t fileInPatternIndex(std::uint32_t slot);

    /** Drop the entry at @p slot from the pattern index if it is the
     *  one filed there (called before its slot is overwritten). */
    void forgetPattern(std::uint32_t slot);

    GhbConfig config_;
    GhbFlavor flavor_;
    unsigned line_bytes_;
    /// Deltas per pattern: history_length - 1.
    std::size_t pattern_length_;
    /// False when history_length leaves no room for a match in the
    /// window; the buffer then only records.
    bool can_match_;
    std::vector<GhbEntry> buffer_;
    std::uint64_t next_pos_ = 0;     ///< global insertion counter
    std::uint32_t next_slot_ = 0;    ///< buffer slot of next_pos_
    std::uint64_t next_chain_ = 0;
    std::vector<IndexEntry> index_;
    std::vector<std::int64_t> patterns_; ///< pattern_length_ per slot
    std::vector<PatternSlot> pattern_index_;
    std::size_t pattern_mask_ = 0;
    std::uint64_t predictions_ = 0;
};

} // namespace csp::prefetch

#endif // CSP_PREFETCH_GHB_H
