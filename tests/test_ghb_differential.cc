/**
 * @file
 * Differential test: the indexed GHB delta correlation against the
 * original chain-rebuild search, restated as a naive reference.
 *
 * The production GhbPrefetcher finds the previous occurrence of the
 * current delta pattern with one pattern-index lookup and three O(1)
 * checks. The reference below does what the original implementation
 * did on every training miss: rebuild the key's newest 64 chain
 * entries through the predecessor links, form all deltas, and search
 * them backwards for the pattern. Both are driven with the same access
 * streams and must emit identical PrefetchRequest vectors on every
 * call and identical `predictions` counters — on randomized streams
 * that exercise buffer wrap, stale links and index-table collisions,
 * and on the full miss streams of mcf, list and libquantum runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hashing.h"
#include "core/rng.h"
#include "core/stats_registry.h"
#include "prefetch/ghb.h"
#include "sim/simulator.h"
#include "trace/context.h"
#include "workloads/registry.h"

namespace csp::prefetch {
namespace {

/** The original rebuild-and-search GHB, restated plainly. */
class ReferenceGhb
{
  public:
    ReferenceGhb(const GhbConfig &config, GhbFlavor flavor,
                 unsigned line_bytes = 64)
        : config_(config),
          flavor_(flavor),
          line_bytes_(line_bytes),
          buffer_(config.ghb_entries),
          index_(config.index_entries)
    {}

    void
    observe(const AccessInfo &info, std::vector<PrefetchRequest> &out)
    {
        if (!info.l1_miss && !info.hit_prefetched_line)
            return;

        const Addr key = flavor_ == GhbFlavor::GlobalDC ? 0 : info.pc;
        IndexEntry &idx = index_[mix64(key) % index_.size()];
        std::uint64_t prev_head = kNoLink;
        if (idx.valid && idx.key_tag == key)
            prev_head = idx.head;

        const std::uint64_t pos = next_pos_++;
        buffer_[pos % buffer_.size()] = Entry{info.line_addr, prev_head};
        idx.key_tag = key;
        idx.valid = true;
        idx.head = pos;

        // The key's stream, newest first, through fresh links only.
        std::vector<Addr> stream;
        for (std::uint64_t p = pos; p != kNoLink && stream.size() < kMaxChain;
             p = buffer_[p % buffer_.size()].prev) {
            if (next_pos_ - p > buffer_.size())
                break;
            stream.push_back(buffer_[p % buffer_.size()].line);
        }
        std::reverse(stream.begin(), stream.end());

        const std::size_t n = stream.size();
        const unsigned hist = config_.history_length;
        if (n < hist + 1)
            return;
        std::vector<std::int64_t> deltas;
        for (std::size_t i = 1; i < n; ++i)
            deltas.push_back(blockDelta(stream[i - 1], stream[i], line_bytes_));
        const std::size_t d = deltas.size();
        const std::size_t plen = hist - 1;
        if (d < plen + 1)
            return;

        for (std::size_t j = d - 2;; --j) {
            bool match = true;
            for (std::size_t k = 0; k < plen; ++k) {
                if (deltas[j - k] != deltas[d - 1 - k]) {
                    match = false;
                    break;
                }
            }
            if (match) {
                Addr target = info.line_addr;
                unsigned issued = 0;
                for (std::size_t k = j + 1;
                     k < d && issued < config_.degree; ++k, ++issued) {
                    // The original multiplied in int64, which
                    // overflows for lines 2^57 apart; wrap instead.
                    target += static_cast<Addr>(deltas[k]) * line_bytes_;
                    if (target != info.line_addr) {
                        out.push_back({target, false, info.pc});
                        ++predictions;
                    }
                }
                return;
            }
            if (j == plen - 1)
                break;
        }
    }

    std::uint64_t predictions = 0;

  private:
    static constexpr std::uint64_t kNoLink = ~0ull;
    static constexpr std::size_t kMaxChain = 64;

    struct Entry
    {
        Addr line = 0;
        std::uint64_t prev = kNoLink;
    };

    struct IndexEntry
    {
        Addr key_tag = 0;
        bool valid = false;
        std::uint64_t head = kNoLink;
    };

    GhbConfig config_;
    GhbFlavor flavor_;
    unsigned line_bytes_;
    std::vector<Entry> buffer_;
    std::uint64_t next_pos_ = 0;
    std::vector<IndexEntry> index_;
};

bool
sameRequests(const std::vector<PrefetchRequest> &a,
             const std::vector<PrefetchRequest> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const PrefetchRequest &x, const PrefetchRequest &y) {
                          return x.addr == y.addr && x.shadow == y.shadow &&
                                 x.pc == y.pc;
                      });
}

std::uint64_t
predictionsOf(const GhbPrefetcher &ghb)
{
    stats::Registry registry;
    ghb.registerStats(registry);
    return static_cast<std::uint64_t>(
        registry.value("prefetch." + ghb.name() + ".predictions"));
}

/** Drives both implementations in lockstep and counts disagreements. */
struct Pair
{
    Pair(const GhbConfig &config, GhbFlavor flavor)
        : fast(config, flavor), ref(config, flavor)
    {}

    void
    observe(const AccessInfo &info)
    {
        fast_out.clear();
        ref_out.clear();
        fast.observe(info, fast_out);
        ref.observe(info, ref_out);
        ++calls;
        if (!sameRequests(fast_out, ref_out)) {
            if (mismatches == 0)
                first_mismatch = calls - 1;
            ++mismatches;
        }
        predicting_calls += ref_out.empty() ? 0 : 1;
    }

    GhbPrefetcher fast;
    ReferenceGhb ref;
    std::vector<PrefetchRequest> fast_out;
    std::vector<PrefetchRequest> ref_out;
    std::uint64_t calls = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t first_mismatch = 0;
    std::uint64_t predicting_calls = 0;
};

struct RandomCase
{
    unsigned ghb_entries;
    unsigned index_entries;
    unsigned history_length;
    unsigned degree;
    unsigned pcs;          ///< PC alphabet size
    unsigned delta_kinds;  ///< delta alphabet size
};

/**
 * A miss stream over a small PC and delta alphabet: each PC walks its
 * own address with deltas drawn mostly from a short per-PC cycle, so
 * patterns recur both inside and beyond the 64-entry window; occasional
 * random jumps, hits and prefetched-line hits mix in.
 */
void
driveRandom(Pair &pair, const RandomCase &c, std::uint64_t seed,
            unsigned accesses)
{
    Rng rng(seed);
    trace::ContextSnapshot ctx;
    std::vector<Addr> cursor(c.pcs);
    std::vector<unsigned> phase(c.pcs, 0);
    for (unsigned p = 0; p < c.pcs; ++p)
        cursor[p] = 0x100000 + Addr{p} * 0x100000;
    for (unsigned i = 0; i < accesses; ++i) {
        const unsigned p = static_cast<unsigned>(rng.below(c.pcs));
        std::int64_t delta;
        if (rng.chance(0.8)) {
            // Per-PC recurring cycle of deltas.
            delta = static_cast<std::int64_t>(phase[p] % c.delta_kinds) -
                    static_cast<std::int64_t>(c.delta_kinds / 2);
            phase[p] += 1 + (rng.chance(0.1) ? 1 : 0);
        } else if (rng.chance(0.9)) {
            delta = static_cast<std::int64_t>(rng.below(c.delta_kinds)) -
                    static_cast<std::int64_t>(c.delta_kinds / 2);
        } else {
            delta = static_cast<std::int64_t>(rng.below(4096)) - 2048;
        }
        cursor[p] += static_cast<Addr>(delta * 64);
        AccessInfo info;
        info.seq = i;
        info.pc = 0x400 + Addr{p} * 4;
        info.vaddr = cursor[p] + rng.below(64);
        info.line_addr = alignDown(info.vaddr, 64);
        info.l1_miss = rng.chance(0.9);
        info.hit_prefetched_line = !info.l1_miss && rng.chance(0.5);
        info.context = &ctx;
        pair.observe(info);
    }
}

TEST(GhbDifferential, RandomizedStreamsMatchReference)
{
    const RandomCase cases[] = {
        // Small and non-power-of-two buffers: wrap and stale links.
        {37, 8, 3, 3, 1, 3},
        {64, 8, 2, 1, 2, 4},
        {100, 3, 4, 4, 3, 3},
        {37, 3, 2, 2, 5, 2},
        {100, 8, 3, 4, 4, 5},
        {64, 3, 4, 2, 6, 3},
        // Many PCs over a small buffer: chain heads go stale between
        // two misses of the same PC.
        {37, 64, 2, 4, 12, 2},
        {50, 512, 3, 3, 10, 3},
        // Larger buffers: matches beyond the 64-entry window.
        {300, 16, 2, 3, 2, 3},
        {2048, 512, 3, 3, 3, 4},
        {2048, 3, 4, 1, 8, 2},
        // Degenerate history lengths.
        {64, 8, 1, 3, 2, 3},
        {100, 8, 63, 2, 1, 1},
        {100, 8, 64, 2, 1, 1},
        {100, 8, 0, 2, 1, 1},
    };
    std::uint64_t seed = 1;
    for (const RandomCase &c : cases) {
        GhbConfig config;
        config.ghb_entries = c.ghb_entries;
        config.index_entries = c.index_entries;
        config.history_length = c.history_length;
        config.degree = c.degree;
        for (GhbFlavor flavor : {GhbFlavor::GlobalDC, GhbFlavor::PcDC}) {
            Pair pair(config, flavor);
            driveRandom(pair, c, seed++, 20000);
            SCOPED_TRACE(pair.fast.name() + " entries=" +
                         std::to_string(c.ghb_entries) + " index=" +
                         std::to_string(c.index_entries) + " hist=" +
                         std::to_string(c.history_length) + " degree=" +
                         std::to_string(c.degree));
            EXPECT_EQ(pair.mismatches, 0u)
                << "first mismatch at call " << pair.first_mismatch;
            EXPECT_EQ(predictionsOf(pair.fast), pair.ref.predictions);
        }
    }
}

TEST(GhbDifferential, RandomizedStreamsPredict)
{
    // Guard against a vacuous differential: the stock geometry predicts
    // on a good share of the randomized calls.
    GhbConfig config;
    const RandomCase c{config.ghb_entries, config.index_entries,
                       config.history_length, config.degree, 3, 4};
    for (GhbFlavor flavor : {GhbFlavor::GlobalDC, GhbFlavor::PcDC}) {
        Pair pair(config, flavor);
        driveRandom(pair, c, 99, 20000);
        EXPECT_EQ(pair.mismatches, 0u);
        EXPECT_GT(pair.predicting_calls, pair.calls / 20);
    }
}

/**
 * Stands in for one GHB inside a simulation: feeds every access the
 * simulator hands it to the indexed GHB and the reference, checks they
 * agree, and returns the indexed GHB's candidates to the simulator.
 */
class LockstepGhb final : public Prefetcher
{
  public:
    LockstepGhb(const GhbConfig &config, GhbFlavor flavor)
        : pair(config, flavor)
    {}

    std::string name() const override { return pair.fast.name(); }

    void
    observe(const AccessInfo &info,
            std::vector<PrefetchRequest> &out) override
    {
        pair.observe(info);
        out.insert(out.end(), pair.fast_out.begin(), pair.fast_out.end());
    }

    Pair pair;
};

TEST(GhbDifferential, WorkloadMissStreamsMatchReference)
{
    for (const char *workload : {"mcf", "list", "libquantum"}) {
        workloads::WorkloadParams params;
        params.scale = 60000;
        params.seed = 1;
        const trace::TraceBuffer trace =
            workloads::Registry::builtin().create(workload)->generate(
                params);
        SystemConfig config;
        for (GhbFlavor flavor : {GhbFlavor::GlobalDC, GhbFlavor::PcDC}) {
            LockstepGhb lockstep(config.ghb, flavor);
            sim::Simulator simulator(config);
            simulator.run(trace, lockstep);
            const Pair &pair = lockstep.pair;
            SCOPED_TRACE(std::string(workload) + " " + pair.fast.name());
            EXPECT_GT(pair.calls, 1000u);
            EXPECT_GT(pair.predicting_calls, 0u);
            EXPECT_EQ(pair.mismatches, 0u)
                << "first mismatch at call " << pair.first_mismatch;
            EXPECT_EQ(predictionsOf(pair.fast), pair.ref.predictions);
        }
    }
}

} // namespace
} // namespace csp::prefetch
