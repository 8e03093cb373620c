#include "workloads/pbbs/pbbs_bfs.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/rng.h"
#include "hints/hint.h"
#include "workloads/graph/csr_graph.h"

namespace csp::workloads::pbbs {

using graph::CsrGraph;

namespace {

constexpr Addr kPcBase = 0x00610000;

enum Site : std::uint32_t
{
    kSiteLoadFrontier = 0,
    kSiteLoadOffsets,
    kSiteLoadTarget,
    kSiteLoadParent,
    kSiteStoreParent,
    kSiteStoreNext,
    kSiteVisitBranch,
    kSiteCompute,
};

} // namespace

trace::TraceBuffer
PbbsBfs::generate(const WorkloadParams &params) const
{
    graph::RmatParams rmat;
    rmat.scale = 10;
    rmat.edge_factor = 8;
    while (rmat.scale < 14 &&
           (1u << (rmat.scale + 1)) * 48ull < params.scale)
        ++rmat.scale;
    rmat.seed = params.seed;
    const std::vector<graph::Edge> edges = graph::generateRmat(rmat);
    const std::uint32_t n = graph::vertexCount(rmat);
    const CsrGraph graph(edges, n);

    runtime::Arena arena((graph.edgeCount() + n) * 24 + (8u << 20),
                         runtime::Placement::Sequential, params.seed);
    auto *offsets = static_cast<std::uint64_t *>(
        arena.allocate((n + 1) * sizeof(std::uint64_t)));
    std::copy(graph.offsets().begin(), graph.offsets().end(), offsets);
    auto *targets = static_cast<std::uint32_t *>(
        arena.allocate(graph.edgeCount() * sizeof(std::uint32_t)));
    std::copy(graph.targets().begin(), graph.targets().end(), targets);
    // parent[] takes its simulated addresses from an arena block but
    // keeps its values in an aligned host vector: a slab block carved
    // after an odd-sized bump allocation is only 4-byte aligned.
    auto *parent_block = static_cast<std::byte *>(
        arena.allocate(n * sizeof(std::int64_t)));
    std::vector<std::int64_t> parent(n);
    const auto parentAddr = [&](std::uint32_t v) {
        return arena.addrOf(parent_block + v * sizeof(std::int64_t));
    };
    auto *frontier = static_cast<std::uint32_t *>(
        arena.allocate(n * sizeof(std::uint32_t)));
    auto *next = static_cast<std::uint32_t *>(
        arena.allocate(n * sizeof(std::uint32_t)));

    hints::TypeEnumerator types;
    const hints::Hint frontier_hint{types.fresh(),
                                    hints::kNoLinkOffset,
                                    hints::RefForm::Index};
    const hints::Hint offsets_hint{types.fresh(), hints::kNoLinkOffset,
                                   hints::RefForm::Index};
    const hints::Hint targets_hint{types.fresh(), hints::kNoLinkOffset,
                                   hints::RefForm::Index};
    const hints::Hint parent_hint{types.fresh(), hints::kNoLinkOffset,
                                  hints::RefForm::Index};

    trace::TraceBuffer buffer;
    trace::Recorder rec(buffer, kPcBase);
    Rng rng(params.seed ^ 0xbf5ull);

    while (buffer.memAccesses() < params.scale) {
        std::fill(parent.begin(), parent.end(), -1);
        const auto source = static_cast<std::uint32_t>(rng.below(n));
        parent[source] = static_cast<std::int64_t>(source);
        std::uint32_t frontier_size = 1;
        frontier[0] = source;
        while (frontier_size > 0 &&
               buffer.memAccesses() < params.scale) {
            std::uint32_t next_size = 0;
            for (std::uint32_t i = 0; i < frontier_size; ++i) {
                const std::uint32_t u = frontier[i];
                rec.load(kSiteLoadFrontier,
                         arena.addrOf(&frontier[i]), frontier_hint,
                         u);
                rec.load(kSiteLoadOffsets, arena.addrOf(&offsets[u]),
                         offsets_hint, offsets[u],
                         /*dep_on_prev_load=*/true);
                for (std::uint64_t e = offsets[u]; e < offsets[u + 1];
                     ++e) {
                    const std::uint32_t v = targets[e];
                    rec.load(kSiteLoadTarget,
                             arena.addrOf(&targets[e]), targets_hint,
                             v, /*dep_on_prev_load=*/true);
                    rec.load(kSiteLoadParent,
                             parentAddr(v), parent_hint,
                             static_cast<std::uint64_t>(parent[v]),
                             /*dep_on_prev_load=*/true);
                    const bool unvisited = parent[v] < 0;
                    rec.branch(kSiteVisitBranch, unvisited);
                    if (unvisited) {
                        parent[v] = static_cast<std::int64_t>(u);
                        rec.store(kSiteStoreParent,
                                  parentAddr(v),
                                  parent_hint);
                        next[next_size] = v;
                        rec.store(kSiteStoreNext,
                                  arena.addrOf(&next[next_size]),
                                  frontier_hint);
                        ++next_size;
                    }
                }
            }
            std::copy(next, next + next_size, frontier);
            frontier_size = next_size;
            rec.compute(kSiteCompute, 4);
        }
    }
    return buffer;
}

} // namespace csp::workloads::pbbs
