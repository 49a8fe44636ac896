/**
 * @file
 * spin_sweep -- parallel experiment-campaign runner.
 *
 * Runs a declarative sweep spec (built-in figure specs or a JSON file;
 * grammar in docs/SWEEP.md) across a worker pool, one independent
 * Network per cell, and writes the aggregated results JSON. The
 * aggregate is bit-identical for any -j; wall-clock performance is
 * reported separately (stdout and, with --bench-json, as the
 * BENCH_sweep.json baseline record CI gates against). A built-in
 * figure spec also prints its paper table after the series (the
 * saturation summary for Figs. 6/7, the link-utilization breakdown for
 * Fig. 8b, the spin counts for Fig. 9).
 *
 *   spin_sweep --spec fig07 -j4 --out sweep-out/fig07
 *   spin_sweep --spec ci-smoke -j2 --json results.json --resume
 *   spin_sweep --list
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/ArgParse.hh"
#include "exp/Campaign.hh"
#include "exp/Report.hh"
#include "exp/SweepSpec.hh"
#include "fault/FaultSchedule.hh"

using namespace spin;
using namespace spin::exp;

namespace
{

const char *
usage()
{
    return "usage: spin_sweep --spec NAME|FILE [options]\n"
           "options:\n"
           "  --spec NAME|FILE   built-in spec name or JSON spec file\n"
           "  -j, --jobs N       worker threads, one cell each\n"
           "                     (default 1)\n"
           "  -t, --threads N    threads inside each cell's simulation\n"
           "                     (default 1; results bit-identical for\n"
           "                     any value, docs/SCALING.md)\n"
           "  --out DIR          per-cell result dir (default\n"
           "                     sweep-out/<spec>); enables resume\n"
           "  --no-cells         do not write per-cell files\n"
           "  --resume           reuse finished cells from --out\n"
           "  --json PATH        aggregated results JSON (default\n"
           "                     <out>/results.json)\n"
           "  --bench-json PATH  write the perf/baseline record\n"
           "                     (BENCH_sweep.json format)\n"
           "  --warmup N         override the spec's warmup window\n"
           "  --measure N        override the spec's measure window\n"
           "  --fast             quarter-scale warmup/measure\n"
           "  --faults PATH      inject a spin-faults/v2 schedule into\n"
           "                     every cell (docs/FAULTS.md)\n"
           "  --metrics PATH     combined spin-metrics/v2 JSONL of every\n"
           "                     simulated cell (docs/OBSERVABILITY.md)\n"
           "  --metrics-interval N  metrics window in cycles (default\n"
           "                     256)\n"
           "  --audit N          run the invariant auditor every N\n"
           "                     cycles in every cell; fail fast with a\n"
           "                     spin-audit/v1 report on violation\n"
           "  --profile          per-phase wall-clock attribution\n"
           "  --reliability      run every cell with end-to-end\n"
           "                     reliable delivery on (docs/FAULTS.md)\n"
           "  --wall-limit N     per-cell wall-clock budget in seconds;\n"
           "                     overruns dump telemetry and fail fast\n"
           "                     (0 = off)\n"
           "  --live             single-line progress meter on stderr\n"
           "                     (auto when stderr is a TTY)\n"
           "  --progress         per-cell progress on stderr\n"
           "  --cells            print the cell expansion and exit\n"
           "  --list             list built-in specs and presets\n"
           "  --help             this message\n";
}

void
listBuiltins()
{
    std::printf("built-in specs:\n");
    for (const std::string &name : builtinSpecNames()) {
        SweepSpec s;
        builtinSpec(name, s);
        std::printf("  %-16s %s, %zu presets x %zu patterns x %zu "
                    "rates x %zu seeds = %zu cells\n",
                    name.c_str(), s.topology.c_str(), s.presets.size(),
                    s.patterns.size(), s.rates.size(), s.seeds.size(),
                    s.expand().size());
    }
    std::printf("\npresets:\n");
    for (const ConfigPreset &p : presetRegistry()) {
        std::printf("  %-24s %s, %d vnets x %d VCs, %s\n",
                    p.name.c_str(), toString(p.kind).c_str(), p.cfg.vnets,
                    p.cfg.vcsPerVnet, toString(p.cfg.scheme).c_str());
    }
}

/**
 * The BENCH_sweep.json record: a deterministic per-cell digest (the
 * tolerance gate) plus the measured throughput of this run (the perf
 * trajectory). tools/check_sweep_baseline.py compares two of these.
 */
obs::JsonValue
benchRecord(const SweepSpec &spec, const obs::JsonValue &results,
            const CampaignPerf &perf, int jobs, int threads)
{
    using obs::JsonValue;
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("spin-sweep-bench/v1"));
    root.set("spec", JsonValue(spec.name));
    JsonValue digest = JsonValue::array();
    const JsonValue &cells = results["cells"];
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JsonValue &c = cells.at(i);
        JsonValue d = JsonValue::object();
        d.set("cell", c["cell"]);
        d.set("latency", c["latency"]);
        d.set("throughput", c["throughput"]);
        d.set("flitsEjected", c["stats"]["traffic"]["flitsEjected"]);
        d.set("spins", c["stats"]["spin"]["spins"]);
        digest.push(std::move(d));
    }
    root.set("digest", std::move(digest));
    JsonValue p = perf.toJson();
    p.set("jobs", JsonValue(jobs));
    p.set("threads", JsonValue(threads));
    root.set("perf", std::move(p));
    return root;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specArg, outDir, jsonPath, benchJsonPath, faultsPath;
    std::string metricsPath;
    std::uint64_t jobs = 1, threads = 1, warmup = 0, measure = 0;
    std::uint64_t metricsInterval = 256, auditInterval = 0;
    bool warmupSet = false, measureSet = false;
    bool fast = false, resume = false, progress = false, live = false;
    bool profile = false;
    bool noCells = false, printCells = false, list = false, help = false;
    bool reliability = false;
    std::uint64_t wallLimit = 0;

    const std::vector<ArgSpec> specs = {
        argStr("--spec", &specArg),
        argU64("-j", &jobs),
        argU64("--jobs", &jobs),
        argU64("-t", &threads),
        argU64("--threads", &threads),
        argStr("--out", &outDir),
        argFlag("--no-cells", &noCells),
        argFlag("--resume", &resume),
        argStr("--json", &jsonPath),
        argStr("--bench-json", &benchJsonPath),
        argU64("--warmup", &warmup, &warmupSet),
        argU64("--measure", &measure, &measureSet),
        argFlag("--fast", &fast),
        argStr("--faults", &faultsPath),
        argStr("--metrics", &metricsPath),
        argU64("--metrics-interval", &metricsInterval),
        argU64("--audit", &auditInterval),
        argFlag("--profile", &profile),
        argFlag("--reliability", &reliability),
        argU64("--wall-limit", &wallLimit),
        argFlag("--live", &live),
        argFlag("--progress", &progress),
        argFlag("--cells", &printCells),
        argFlag("--list", &list),
        argFlag("--help", &help),
        argFlag("-h", &help),
    };
    std::string err;
    if (!parseArgs(argc, argv, specs, err)) {
        std::fprintf(stderr, "spin_sweep: %s\n%s", err.c_str(), usage());
        return 2;
    }
    if (help) {
        std::printf("%s", usage());
        return 0;
    }
    if (list) {
        listBuiltins();
        return 0;
    }
    if (specArg.empty()) {
        std::fprintf(stderr, "spin_sweep: --spec is required\n%s",
                     usage());
        return 2;
    }

    SweepSpec spec;
    CampaignReport table = CampaignReport::None;
    if (!builtinSpec(specArg, spec, &table) &&
        !SweepSpec::fromFile(specArg, spec, err)) {
        std::fprintf(stderr, "spin_sweep: %s\n", err.c_str());
        return 2;
    }
    if (warmupSet)
        spec.warmup = warmup;
    if (measureSet)
        spec.measure = measure;
    if (fast) {
        spec.warmup /= 4;
        spec.measure = std::max<Cycle>(spec.measure / 4, 1);
    }
    if (reliability)
        spec.reliability = {true};

    const std::vector<Cell> cells = spec.expand();
    if (printCells) {
        std::printf("%zu cells:\n", cells.size());
        for (const Cell &c : cells)
            std::printf("  [%4zu] %-56s netSeed=%llu\n", c.index,
                        c.id.c_str(),
                        static_cast<unsigned long long>(c.netSeed));
        return 0;
    }

    CampaignOptions copt;
    copt.jobs = static_cast<int>(jobs);
    copt.threads = static_cast<int>(threads);
    copt.resume = resume;
    copt.progress = progress;
    copt.metricsPath = metricsPath;
    copt.metricsInterval = metricsInterval;
    copt.auditInterval = auditInterval;
    copt.wallLimitSeconds = wallLimit;
    copt.profile = profile;
    // The meter is for humans: auto-enable on a TTY unless per-cell
    // logging was requested, which it would overwrite.
    copt.live = live || (!progress && isatty(fileno(stderr)) != 0);
    if (!faultsPath.empty() &&
        !fault::FaultSchedule::fromFile(faultsPath, copt.faultSchedule,
                                        err)) {
        std::fprintf(stderr, "spin_sweep: %s\n", err.c_str());
        return 2;
    }
    if (!noCells)
        copt.cellDir = outDir.empty() ? "sweep-out/" + spec.name : outDir;
    if (jsonPath.empty() && !copt.cellDir.empty())
        jsonPath = copt.cellDir + "/results.json";

    std::printf("spin_sweep: spec '%s' (%s), %zu cells, %llu jobs, "
                "%llu threads/cell%s\n\n",
                spec.name.c_str(), spec.topology.c_str(), cells.size(),
                static_cast<unsigned long long>(jobs),
                static_cast<unsigned long long>(threads),
                resume ? ", resume" : "");

    Campaign campaign(spec, copt);
    obs::JsonValue results;
    try {
        results = campaign.run();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "spin_sweep: %s\n", e.what());
        return 1;
    }
    printSeries(results);
    printReport(table, results);

    const CampaignPerf &perf = campaign.perf();
    std::printf("== campaign: %zu cells (%zu simulated, %zu cached) in "
                "%.2fs -> %.2f cells/s, %.0f cycles/s ==\n",
                perf.cells, perf.cellsSimulated, perf.cellsCached,
                perf.wallSeconds, perf.cellsPerSec(),
                perf.cyclesPerSec());
    if (profile)
        printPhaseProfile(campaign.profile().toJson());

    bool ok = true;
    if (!metricsPath.empty())
        std::printf("wrote %s\n", metricsPath.c_str());
    if (!jsonPath.empty()) {
        ok = writeJsonFile(jsonPath, results) && ok;
        if (ok)
            std::printf("wrote %s\n", jsonPath.c_str());
    }
    if (!benchJsonPath.empty()) {
        obs::JsonValue rec =
            benchRecord(spec, results, perf, static_cast<int>(jobs),
                        static_cast<int>(threads));
        // Wall-clock only; the baseline checker never reads it.
        if (profile)
            rec.set("profile", campaign.profile().toJson());
        ok = writeJsonFile(benchJsonPath, rec) && ok;
        if (ok)
            std::printf("wrote %s\n", benchJsonPath.c_str());
    }
    return ok ? 0 : 1;
}
