#include "prefetch/ghb.h"

#include <algorithm>

#include "core/hashing.h"
#include "core/stats_registry.h"

namespace csp::prefetch {

GhbPrefetcher::GhbPrefetcher(const GhbConfig &config, GhbFlavor flavor,
                             unsigned line_bytes)
    : config_(config),
      flavor_(flavor),
      line_bytes_(line_bytes),
      buffer_(config.ghb_entries),
      index_(config.index_entries)
{
    // A match needs its pattern plus at least one later link inside the
    // kMaxChain-entry window.
    can_match_ = config.history_length >= 1 &&
                 config.history_length < kMaxChain;
    pattern_length_ = can_match_ ? config.history_length - 1 : 0;
    if (!can_match_)
        return;
    patterns_.resize(buffer_.size() * pattern_length_);
    // At most one indexed pattern per buffer slot: load factor <= 1/2.
    std::size_t slots = 1;
    while (slots < 2 * buffer_.size())
        slots <<= 1;
    pattern_index_.resize(slots);
    pattern_mask_ = slots - 1;
}

std::string
GhbPrefetcher::name() const
{
    return flavor_ == GhbFlavor::GlobalDC ? "ghb-gdc" : "ghb-pcdc";
}

Addr
GhbPrefetcher::indexKey(const AccessInfo &info) const
{
    return flavor_ == GhbFlavor::GlobalDC ? 0 : info.pc;
}

bool
GhbPrefetcher::buildPattern(std::uint32_t slot)
{
    GhbEntry &entry = buffer_[slot];
    if (entry.ordinal < pattern_length_)
        return false;
    std::int64_t *pattern = patternOf(slot);
    std::uint32_t at = slot;
    for (std::size_t k = pattern_length_; k-- > 0;) {
        const GhbEntry &cur = buffer_[at];
        const GhbEntry &prev = buffer_[cur.prev];
        // The predecessor's slot has been overwritten: the fresh part
        // of the chain is shorter than the pattern.
        if (prev.chain != cur.chain || prev.ordinal + 1 != cur.ordinal)
            return false;
        pattern[k] = blockDelta(prev.line, cur.line, line_bytes_);
        at = cur.prev;
    }
    std::uint64_t hash = mix64(entry.key);
    for (std::size_t k = 0; k < pattern_length_; ++k)
        hash = hashCombine(hash, static_cast<std::uint64_t>(pattern[k]));
    entry.origin = at;
    entry.hash = static_cast<std::uint32_t>(hash >> 32);
    return true;
}

std::uint32_t
GhbPrefetcher::fileInPatternIndex(std::uint32_t slot)
{
    const GhbEntry &entry = buffer_[slot];
    const std::int64_t *pattern = patternOf(slot);
    for (std::size_t i = entry.hash & pattern_mask_;;
         i = (i + 1) & pattern_mask_) {
        PatternSlot &probe = pattern_index_[i];
        if (probe.entry == kNoSlot) {
            probe = PatternSlot{entry.hash, slot};
            return kNoSlot;
        }
        if (probe.hash == entry.hash &&
            buffer_[probe.entry].key == entry.key &&
            std::equal(pattern, pattern + pattern_length_,
                       patternOf(probe.entry))) {
            const std::uint32_t previous = probe.entry;
            probe.entry = slot;
            return previous;
        }
    }
}

void
GhbPrefetcher::forgetPattern(std::uint32_t slot)
{
    const GhbEntry &entry = buffer_[slot];
    if (entry.origin == kNoSlot)
        return;
    std::size_t i = entry.hash & pattern_mask_;
    while (pattern_index_[i].entry != slot) {
        // A newer occurrence of the same pattern replaced it.
        if (pattern_index_[i].entry == kNoSlot)
            return;
        i = (i + 1) & pattern_mask_;
    }
    // Backward-shift deletion (no tombstones), as in PredictedSet.
    std::size_t j = i;
    for (;;) {
        pattern_index_[i].entry = kNoSlot;
        for (;;) {
            j = (j + 1) & pattern_mask_;
            if (pattern_index_[j].entry == kNoSlot)
                return;
            const std::size_t h = pattern_index_[j].hash & pattern_mask_;
            // The item at j may fill the hole at i unless its home lies
            // cyclically within (i, j].
            const bool stuck = i <= j ? (i < h && h <= j)
                                      : (i < h || h <= j);
            if (!stuck)
                break;
        }
        pattern_index_[i] = pattern_index_[j];
        i = j;
    }
}

void
GhbPrefetcher::observe(const AccessInfo &info,
                       std::vector<PrefetchRequest> &out)
{
    // Train on the miss stream (see file comment).
    if (!info.l1_miss && !info.hit_prefetched_line)
        return;

    const Addr key = indexKey(info);
    IndexEntry &idx =
        index_[mix64(key) % index_.size()];

    // Insert the new access at the global position. A head the buffer
    // has wrapped past is stale: the key starts a new chain.
    const std::uint64_t pos = next_pos_++;
    const std::uint32_t slot = next_slot_;
    next_slot_ = slot + 1 == buffer_.size() ? 0 : slot + 1;
    if (can_match_)
        forgetPattern(slot);
    GhbEntry &entry = buffer_[slot];
    entry.line = info.line_addr;
    entry.key = key;
    entry.next = kNoSlot;
    entry.origin = kNoSlot;
    if (idx.valid && idx.key_tag == key &&
        pos - idx.head < buffer_.size()) {
        GhbEntry &head = buffer_[idx.head_slot];
        entry.chain = head.chain;
        entry.ordinal = head.ordinal + 1;
        entry.prev = idx.head_slot;
        head.next = slot;
    } else {
        entry.chain = next_chain_++;
        entry.ordinal = 0;
        entry.prev = kNoSlot;
    }
    idx.key_tag = key;
    idx.valid = true;
    idx.head = pos;
    idx.head_slot = slot;

    // Delta-correlate: the pattern index holds the newest earlier entry
    // with this key and pattern. It is the match the backward search of
    // the chain's newest kMaxChain entries would find iff it sits in
    // this chain, its pattern lies inside that window, and the oldest
    // line of its pattern is still fresh; otherwise there is no match,
    // because every older occurrence fails the same checks.
    if (!can_match_ || !buildPattern(slot))
        return;
    const std::uint32_t found = fileInPatternIndex(slot);
    if (found == kNoSlot)
        return;
    const GhbEntry &match = buffer_[found];
    if (match.chain != entry.chain ||
        entry.ordinal - match.ordinal + pattern_length_ >= kMaxChain)
        return;
    const GhbEntry &oldest = buffer_[match.origin];
    if (oldest.chain != match.chain ||
        oldest.ordinal + pattern_length_ != match.ordinal)
        return;

    // Replay the deltas that followed the matched occurrence, walking
    // forward no further than the new entry.
    Addr target = info.line_addr;
    std::uint32_t at = found;
    for (unsigned issued = 0; issued < config_.degree; ++issued) {
        const GhbEntry &from = buffer_[at];
        if (from.next == kNoSlot)
            break;
        const GhbEntry &to = buffer_[from.next];
        // Unsigned: wraps instead of overflowing for far-apart lines.
        target += static_cast<Addr>(
                      blockDelta(from.line, to.line, line_bytes_)) *
                  line_bytes_;
        if (target != info.line_addr) {
            out.push_back({target, false, info.pc});
            ++predictions_;
        }
        at = from.next;
    }
}

void
GhbPrefetcher::registerStats(stats::Registry &registry) const
{
    const std::string prefix = "prefetch." + name();
    registry.counter(prefix + ".predictions", &predictions_,
                     "prefetch candidates emitted");
    registry.gauge(
        prefix + ".index_live",
        [this] {
            double live = 0.0;
            for (const IndexEntry &entry : index_)
                live += entry.valid ? 1.0 : 0.0;
            return live;
        },
        "valid index-table entries");
}

} // namespace csp::prefetch
