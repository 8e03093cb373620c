/**
 * @file
 * Run-provenance tests: the config digest is stable under identical
 * inputs and sensitive to every class of knob, the trace content
 * digest pins workload generation, and the manifest round-trips
 * through the csp diff parsers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/config.h"
#include "core/run_manifest.h"
#include "diff/csp_diff.h"
#include "trace/trace.h"
#include "workloads/registry.h"

namespace csp {
namespace {

TEST(ConfigDigest, StableAcrossIdenticalConfigs)
{
    SystemConfig a;
    SystemConfig b;
    EXPECT_EQ(configDigest(a), configDigest(b));
}

TEST(ConfigDigest, SensitiveToEveryKnobClass)
{
    const SystemConfig base;
    const std::uint64_t reference = configDigest(base);

    SystemConfig seed = base;
    seed.seed += 1;
    EXPECT_NE(configDigest(seed), reference);

    SystemConfig memory = base;
    memory.memory.dram_latency += 10;
    EXPECT_NE(configDigest(memory), reference);

    SystemConfig context = base;
    context.context.cst_entries *= 2;
    EXPECT_NE(configDigest(context), reference);

    SystemConfig degree = base;
    degree.context.max_degree += 1;
    EXPECT_NE(configDigest(degree), reference);

    SystemConfig softmax = base;
    softmax.context.softmax_exploration =
        !softmax.context.softmax_exploration;
    EXPECT_NE(configDigest(softmax), reference);
}

TEST(ConfigDigest, HexDigestIsSixteenHexDigits)
{
    const std::string hex = hexDigest(configDigest(SystemConfig{}));
    ASSERT_EQ(hex.size(), 16u);
    for (const char c : hex) {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << "unexpected digest character: " << c;
    }
}

trace::TraceBuffer
generateTrace(std::uint64_t seed, std::uint64_t scale)
{
    workloads::WorkloadParams params;
    params.seed = seed;
    params.scale = scale;
    const auto workload = workloads::Registry::builtin().create("bst");
    return workload->generate(params);
}

TEST(TraceDigest, SameSeedSameDigest)
{
    const trace::TraceBuffer a = generateTrace(1, 2000);
    const trace::TraceBuffer b = generateTrace(1, 2000);
    EXPECT_EQ(a.contentDigest(), b.contentDigest());
}

TEST(TraceDigest, ChangedSeedChangesDigest)
{
    const trace::TraceBuffer a = generateTrace(1, 2000);
    const trace::TraceBuffer b = generateTrace(2, 2000);
    EXPECT_NE(a.contentDigest(), b.contentDigest());
}

TEST(TraceDigest, ChangedScaleChangesDigest)
{
    const trace::TraceBuffer a = generateTrace(1, 2000);
    const trace::TraceBuffer b = generateTrace(1, 4000);
    EXPECT_NE(a.contentDigest(), b.contentDigest());
}

TEST(RunManifest, JsonParsesAndCarriesIdentity)
{
    SystemConfig config;
    config.seed = 42;
    RunManifest manifest = makeRunManifest("test", config);
    manifest.seed = 42;
    manifest.workloads = "bst";
    manifest.prefetchers = "context";

    FlatDoc doc;
    std::string error;
    ASSERT_TRUE(parseJsonFlat(manifest.toJson(), doc, &error))
        << error;

    const FlatValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "csp-run-manifest-v1");

    const FlatValue *digest = doc.find("config_digest");
    ASSERT_NE(digest, nullptr);
    EXPECT_EQ(digest->text, hexDigest(configDigest(config)));

    const FlatValue *seed = doc.find("seed");
    ASSERT_NE(seed, nullptr);
    EXPECT_TRUE(seed->is_number);
    EXPECT_EQ(seed->number, 42.0);
}

TEST(RunManifest, CsvCommentRoundTripsThroughCsvParser)
{
    RunManifest manifest = makeRunManifest("test", SystemConfig{});
    std::ostringstream csv;
    manifest.writeCsvComment(csv);
    csv << "name,value\nrow,1\n";

    FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseCsvFlat(csv.str(), doc, &error)) << error;

    const FlatValue *tool = doc.find("manifest.tool");
    ASSERT_NE(tool, nullptr);
    EXPECT_EQ(tool->text, "test");
    EXPECT_NE(doc.find("manifest.config_digest"), nullptr);
    EXPECT_NE(doc.find("row.value"), nullptr);
}

TEST(RunManifest, SameConfigProducesSameDigestFields)
{
    SystemConfig config;
    const RunManifest a = makeRunManifest("test", config);
    const RunManifest b = makeRunManifest("test", config);
    EXPECT_EQ(a.config_digest, b.config_digest);

    SystemConfig other = config;
    other.context.history_entries += 1;
    const RunManifest c = makeRunManifest("test", other);
    EXPECT_NE(a.config_digest, c.config_digest);
}

} // namespace
} // namespace csp
