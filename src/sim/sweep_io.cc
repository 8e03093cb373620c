#include "sim/sweep_io.h"

#include <initializer_list>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/content_store.h"
#include "core/json.h"
#include "sim/result_cache.h"

namespace csp::sim {

namespace {

std::vector<std::string>
splitNames(const std::string &joined)
{
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start <= joined.size()) {
        const std::size_t comma = joined.find(',', start);
        if (comma == std::string::npos) {
            if (start < joined.size())
                names.push_back(joined.substr(start));
            break;
        }
        names.push_back(joined.substr(start, comma - start));
        start = comma + 1;
    }
    return names;
}

/** Copy each named field's exact integer value into its slot; false
 *  with *error naming the first field that is missing or not a plain
 *  unsigned integer. */
bool
readIntegers(
    const FlatDoc &doc,
    std::initializer_list<std::pair<std::string, std::uint64_t *>> fields,
    std::string *error)
{
    for (const auto &[name, out] : fields) {
        const std::optional<std::uint64_t> value = doc.u64(name);
        if (!value) {
            if (error != nullptr)
                *error = "missing integer field: " + name;
            return false;
        }
        *out = *value;
    }
    return true;
}

bool
parseManifestFlat(const FlatDoc &doc, RunManifest &m,
                  std::string *error)
{
    const std::pair<const char *, std::string *> texts[] = {
        {"schema", &m.schema},
        {"tool", &m.tool},
        {"git_sha", &m.git_sha},
        {"build_type", &m.build_type},
        {"compiler", &m.compiler},
        {"cxx_flags", &m.cxx_flags},
        {"config_digest", &m.config_digest},
        {"workloads", &m.workloads},
        {"prefetchers", &m.prefetchers},
        {"placement", &m.placement},
        {"trace_digest", &m.trace_digest},
        {"hostname", &m.hostname},
        {"kernel", &m.kernel},
        {"arch", &m.arch},
        {"start_utc", &m.start_utc},
    };
    for (const auto &[name, out] : texts) {
        const FlatValue *value = doc.find(std::string("manifest.") + name);
        if (value == nullptr) {
            if (error != nullptr)
                *error = std::string("missing field: manifest.") + name;
            return false;
        }
        *out = value->text;
    }
    const std::pair<const char *, double *> reals[] = {
        {"trace_gen_seconds", &m.trace_gen_seconds},
        {"sim_seconds", &m.sim_seconds},
        {"insts_per_sec", &m.insts_per_sec},
    };
    for (const auto &[name, out] : reals) {
        const FlatValue *value = doc.find(std::string("manifest.") + name);
        if (value == nullptr || !value->is_number) {
            if (error != nullptr) {
                *error =
                    std::string("missing numeric field: manifest.") + name;
            }
            return false;
        }
        *out = value->number;
    }
    std::uint64_t jobs = 0, hw_threads = 0;
    if (!readIntegers(doc,
                      {{"manifest.seed", &m.seed},
                       {"manifest.scale", &m.scale},
                       {"manifest.jobs", &jobs},
                       {"manifest.trace_records", &m.trace_records},
                       {"manifest.trace_instructions",
                        &m.trace_instructions},
                       {"manifest.trace_accesses", &m.trace_accesses},
                       {"manifest.hw_threads", &hw_threads}},
                      error))
        return false;
    m.jobs = static_cast<unsigned>(jobs);
    m.hw_threads = static_cast<unsigned>(hw_threads);
    m.git_dirty = doc.text("manifest.git_dirty") == "true";
    return true;
}

/** The sweep identity both merge and the result cache hinge on: two
 *  artefacts agreeing on all of this swept the same experiment. */
bool
sameSweepIdentity(const RunManifest &a, const RunManifest &b,
                  std::string &why)
{
    const auto differs = [&why](const char *what) {
        why = what;
        return false;
    };
    if (a.config_digest != b.config_digest)
        return differs("config_digest");
    if (a.trace_digest != b.trace_digest)
        return differs("trace_digest");
    if (a.seed != b.seed)
        return differs("seed");
    if (a.scale != b.scale)
        return differs("scale");
    if (a.placement != b.placement)
        return differs("placement");
    if (a.workloads != b.workloads)
        return differs("workloads");
    if (a.prefetchers != b.prefetchers)
        return differs("prefetchers");
    return true;
}

} // namespace

void
writeSweepCsv(std::ostream &out, const SweepResult &result)
{
    out << "workload,prefetcher";
    for (const auto &[name, value] : runStatsFields(RunStats{})) {
        static_cast<void>(value);
        out << ',' << name;
    }
    out << '\n';
    for (const CellResult &cell : result.cells) {
        if (!cell.present)
            continue;
        out << cell.workload << ',' << cell.prefetcher;
        for (const auto &[name, value] : runStatsFields(cell.stats)) {
            static_cast<void>(name);
            out << ',' << value;
        }
        out << '\n';
    }
}

void
writeSweepJson(std::ostream &out, const SweepResult &result)
{
    std::uint64_t cells_present = 0;
    for (const CellResult &cell : result.cells)
        cells_present += cell.present ? 1 : 0;
    out << "{\"schema\":\"csp-sweep-v2\"\n"
        << ",\"manifest\":" << result.manifest.toJson() << '\n'
        << ",\"shard\":{\"index\":" << result.shard_index
        << ",\"count\":" << result.shard_count << '}' << '\n'
        << ",\"cache\":{\"cells_total\":" << result.cells.size()
        << ",\"cells_present\":" << cells_present
        << ",\"cells_cached\":" << result.cells_cached
        << ",\"cells_simulated\":" << result.cells_simulated
        << ",\"trace_cache_hits\":" << result.trace_cache_hits
        << ",\"read_ns\":" << result.cache_read_ns
        << ",\"parse_ns\":" << result.cache_parse_ns
        << ",\"entry_bytes\":" << result.cache_entry_bytes
        << ",\"verify_failures\":" << result.cache_verify_failures
        << '}' << '\n'
        << ",\"cells\":[";
    bool first = true;
    for (const CellResult &cell : result.cells) {
        if (!cell.present)
            continue;
        out << (first ? "" : ",") << "\n{\"workload\":\""
            << cell.workload << "\",\"prefetcher\":\""
            << cell.prefetcher << "\",\"stats\":";
        writeRunStatsJson(out, cell.stats);
        out << '}';
        first = false;
    }
    out << "\n]}\n";
}

bool
readSweepJson(const std::string &path, SweepResult &out,
              std::string *error)
{
    std::string text;
    if (!readFileToString(path, text)) {
        if (error != nullptr)
            *error = "cannot read " + path;
        return false;
    }
    FlatDoc doc;
    if (!parseJsonFlat(text, doc, error))
        return false;
    if (doc.text("schema") != "csp-sweep-v2") {
        if (error != nullptr)
            *error = path + ": not a csp-sweep-v2 artefact";
        return false;
    }
    SweepResult result;
    if (!parseManifestFlat(doc, result.manifest, error))
        return false;
    std::uint64_t shard_index = 0, shard_count = 1;
    if (!readIntegers(
            doc,
            {{"shard.index", &shard_index},
             {"shard.count", &shard_count},
             {"cache.cells_cached", &result.cells_cached},
             {"cache.cells_simulated", &result.cells_simulated},
             {"cache.trace_cache_hits", &result.trace_cache_hits},
             {"cache.read_ns", &result.cache_read_ns},
             {"cache.parse_ns", &result.cache_parse_ns},
             {"cache.entry_bytes", &result.cache_entry_bytes},
             {"cache.verify_failures", &result.cache_verify_failures}},
            error))
        return false;
    result.shard_index = static_cast<unsigned>(shard_index);
    result.shard_count = static_cast<unsigned>(shard_count);
    result.workload_names = splitNames(result.manifest.workloads);
    result.prefetcher_names = splitNames(result.manifest.prefetchers);
    const std::size_t n_prefetchers = result.prefetcher_names.size();
    result.cells.resize(result.workload_names.size() * n_prefetchers);
    for (std::size_t i = 0;; ++i) {
        const std::string prefix =
            "cells." + std::to_string(i) + ".";
        const FlatValue *workload =
            doc.find(prefix + "workload");
        if (workload == nullptr)
            break;
        const FlatValue *prefetcher =
            doc.find(prefix + "prefetcher");
        if (prefetcher == nullptr) {
            if (error != nullptr)
                *error = prefix + "prefetcher missing";
            return false;
        }
        std::size_t wi = result.workload_names.size();
        for (std::size_t w = 0; w < result.workload_names.size(); ++w)
            if (result.workload_names[w] == workload->text)
                wi = w;
        std::size_t pi = n_prefetchers;
        for (std::size_t p = 0; p < n_prefetchers; ++p)
            if (result.prefetcher_names[p] == prefetcher->text)
                pi = p;
        if (wi == result.workload_names.size() ||
            pi == n_prefetchers) {
            if (error != nullptr) {
                *error = prefix + "names (" + workload->text + ", " +
                         prefetcher->text +
                         ") not in the manifest's grid";
            }
            return false;
        }
        CellResult &cell = result.cells[wi * n_prefetchers + pi];
        if (cell.present) {
            if (error != nullptr) {
                *error = path + ": duplicate cell (" +
                         workload->text + ", " + prefetcher->text +
                         ")";
            }
            return false;
        }
        cell.workload = workload->text;
        cell.prefetcher = prefetcher->text;
        if (!parseRunStatsFlat(doc, prefix + "stats.", cell.stats)) {
            if (error != nullptr)
                *error = prefix + "stats incomplete";
            return false;
        }
        cell.present = true;
    }
    out = std::move(result);
    return true;
}

bool
mergeSweeps(const std::vector<SweepResult> &shards, SweepResult &out,
            std::string *error)
{
    if (shards.empty()) {
        if (error != nullptr)
            *error = "no shards to merge";
        return false;
    }
    SweepResult merged = shards.front();
    for (std::size_t s = 1; s < shards.size(); ++s) {
        const SweepResult &shard = shards[s];
        std::string why;
        if (!sameSweepIdentity(merged.manifest, shard.manifest,
                               why)) {
            if (error != nullptr) {
                *error = "shards disagree on " + why +
                         " — refusing to merge different sweeps";
            }
            return false;
        }
        if (shard.cells.size() != merged.cells.size()) {
            if (error != nullptr)
                *error = "shards disagree on grid size";
            return false;
        }
        for (std::size_t k = 0; k < shard.cells.size(); ++k) {
            if (!shard.cells[k].present)
                continue;
            if (merged.cells[k].present) {
                if (error != nullptr) {
                    *error = "cell (" + shard.cells[k].workload +
                             ", " + shard.cells[k].prefetcher +
                             ") owned by more than one shard";
                }
                return false;
            }
            merged.cells[k] = shard.cells[k];
        }
        merged.cells_cached += shard.cells_cached;
        merged.cells_simulated += shard.cells_simulated;
        merged.trace_cache_hits += shard.trace_cache_hits;
        merged.cache_read_ns += shard.cache_read_ns;
        merged.cache_parse_ns += shard.cache_parse_ns;
        merged.cache_entry_bytes += shard.cache_entry_bytes;
        merged.cache_verify_failures += shard.cache_verify_failures;
        merged.manifest.trace_gen_seconds +=
            shard.manifest.trace_gen_seconds;
        merged.manifest.sim_seconds += shard.manifest.sim_seconds;
    }
    for (const CellResult &cell : merged.cells) {
        if (!cell.present) {
            if (error != nullptr) {
                *error = "incomplete coverage: no shard owns some "
                         "cells (merged " +
                         std::to_string(shards.size()) + " of " +
                         std::to_string(merged.shard_count) +
                         " shards?)";
            }
            return false;
        }
    }
    merged.shard_index = 0;
    merged.shard_count = 1;
    if (merged.manifest.sim_seconds > 0.0) {
        std::uint64_t simulated = 0;
        for (const CellResult &cell : merged.cells)
            simulated += cell.stats.instructions;
        merged.manifest.insts_per_sec =
            static_cast<double>(simulated) /
            merged.manifest.sim_seconds;
    }
    out = std::move(merged);
    return true;
}

} // namespace csp::sim
