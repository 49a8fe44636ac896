/**
 * @file
 * perfbench harness: one iteration of one benchmark workload.
 *
 *   perfbench_harness --workload NAME --seed N --jobs P [--trace]
 *
 * Runs the workload against the spinnoc library, checks its outputs
 * and prints one JSON document of raw measurements on stdout; run.py
 * repeats it for the measured interval and reports medians. All timing
 * is taken from outside the library, around calls into each layer's
 * public API (topology generators, preset builds, Network::step,
 * SyntheticInjector::tick, exp::Campaign::run, verify::explore); the
 * per-phase split comes from the library's own PhaseProfiler. Nothing
 * inside src/ is instrumented.
 *
 * Workloads (perfbench/README.md has the reasoning and rate grids):
 *   mesh-sweep     exp::Campaign::run over below-knee mesh8x8 cells
 *   spin-overload  mesh8x8 at and above the knee, then a capped drain
 *   model-check    verify::explore over four pinned scenarios
 *
 * Untraced (the default) the document carries the end-to-end figures.
 * With --trace the harness additionally reruns the workload with the
 * profiler on and every layer call timed, cross-checks its simulated
 * digest against the untraced pass, and emits the per-layer figures.
 *
 * exit status: 0 ran (the document says whether the checks passed),
 *              2 usage error
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "common/Logging.hh"
#include "deadlock/Invariants.hh"
#include "exp/Campaign.hh"
#include "exp/SweepSpec.hh"
#include "network/Network.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "obs/Profiler.hh"
#include "stats/Stats.hh"
#include "topology/Mesh.hh"
#include "traffic/SyntheticInjector.hh"
#include "verify/Explorer.hh"
#include "verify/Scenarios.hh"

namespace
{

using namespace spin;
using obs::JsonValue;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload definitions. Changing any of these changes what the
// benchmark measures: keep them pinned (README.md records them).
// ---------------------------------------------------------------------

const std::vector<std::string> kSweepPresets = {
    "WestFirst_3VC", "MinAdaptive_3VC_SPIN", "FAvORS_Min_1VC_SPIN"};
const std::vector<double> kSweepRates = {0.02, 0.06, 0.10, 0.14};
constexpr Cycle kSweepMeasure = 2000;

struct OverloadRow
{
    const char *preset;
    std::vector<double> rates;
    bool control;
};
// Rows in descending expected cell time, so the pool never starts its
// longest cells last. WestFirst_1VC is the deadlock-free control.
const std::vector<OverloadRow> kOverloadRows = {
    {"MinAdaptive_3VC_SPIN", {0.45, 0.50}, false},
    {"FAvORS_Min_1VC_SPIN", {0.18, 0.22, 0.30, 0.40}, false},
    {"WestFirst_1VC", {0.18, 0.22, 0.30, 0.40}, true},
};
constexpr int kOverloadSeeds = 6;
constexpr Cycle kOverloadWarmup = 1000;
constexpr Cycle kOverloadMeasure = 1000;
constexpr Cycle kOverloadDrainCap = 15000;

const std::vector<std::string> kModelScenarios = {
    "ring4", "shared8", "fault-ring4", "dual-torus8"};
constexpr int kModelBudget = 2;
constexpr Cycle kModelBaselineCap = 20000;

/** Minimum wall time the set-up phase repeats construction for. */
constexpr double kSetupBudgetSeconds = 0.25;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (reordered in place). */
double
percentile(std::vector<std::uint32_t> &v, double p)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(p * double(v.size())));
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
digestOf(const std::vector<JsonValue> &docs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const JsonValue &d : docs) {
        for (const char c : d.dump(0) + '\n') {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Median seconds of @p fn over >= 3 calls and >= kSetupBudgetSeconds. */
double
timeSetup(const std::function<void()> &fn)
{
    std::vector<double> reps;
    const auto start = Clock::now();
    while (reps.size() < 3 ||
           (secondsSince(start) < kSetupBudgetSeconds && reps.size() < 500)) {
        const auto t0 = Clock::now();
        fn();
        reps.push_back(secondsSince(t0));
    }
    return median(reps);
}

/** Run fn(i) for i in [0, n) on @p jobs threads; returns wall seconds. */
double
runPool(std::size_t n, int jobs, const std::function<void(std::size_t)> &fn)
{
    const auto t0 = Clock::now();
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    const int workers =
        static_cast<int>(std::min<std::size_t>(std::max(jobs, 1), n));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        for (int j = 0; j < workers; ++j)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return secondsSince(t0);
}

/** Same key order as the "linkUsage" object of a campaign cell. */
JsonValue
usageJson(const LinkUsage &u)
{
    JsonValue o = JsonValue::object();
    o.set("flitCycles", JsonValue(u.flitCycles));
    o.set("probeCycles", JsonValue(u.probeCycles));
    o.set("moveCycles", JsonValue(u.moveCycles));
    o.set("idleCycles", JsonValue(u.idleCycles));
    o.set("totalCycles", JsonValue(u.totalCycles));
    return o;
}

void
addUsage(LinkUsage &into, const LinkUsage &u)
{
    into.flitCycles += u.flitCycles;
    into.probeCycles += u.probeCycles;
    into.moveCycles += u.moveCycles;
    into.idleCycles += u.idleCycles;
    into.totalCycles += u.totalCycles;
}

/** The traffic fields of a campaign cell's "stats" object. */
Stats
trafficFromJson(const JsonValue &stats)
{
    Stats s;
    const JsonValue &t = stats["traffic"];
    s.packetsCreated = t["packetsCreated"].asU64();
    s.packetsEjected = t["packetsEjected"].asU64();
    s.flitsEjected = t["flitsEjected"].asU64();
    const JsonValue &hist = t["latencyHist"];
    for (std::size_t i = 0; i < hist.size(); ++i)
        s.latencyHist.push_back(hist.at(i).asU64());
    return s;
}

void
addHist(std::vector<std::uint64_t> &into,
        const std::vector<std::uint64_t> &h)
{
    if (into.size() < h.size())
        into.resize(h.size(), 0);
    for (std::size_t i = 0; i < h.size(); ++i)
        into[i] += h[i];
}

/** Heap bytes in use (glibc), for construction-footprint deltas. */
std::size_t
heapInUse()
{
    return mallinfo2().uordblks;
}

// ---------------------------------------------------------------------
// Simulated cells
// ---------------------------------------------------------------------

struct SimCell
{
    exp::Cell cell;
    Cycle warmup = 0;
    Cycle measure = 0;
    Cycle drainCap = 0; //!< 0: no drain phase
    bool control = false;
};

/** Outside timers of one traced cell. */
struct CellTimers
{
    double constructMs = 0;
    std::uint64_t tickNs = 0;
    std::uint64_t stepNs = 0;
    std::vector<std::uint32_t> steps; //!< every step(), ns
    obs::PhaseProfiler profile;
};

struct CellResult
{
    std::string id;
    std::string preset;
    bool ok = true;
    std::string error;
    bool reliability = false;
    bool control = false;
    double rate = 0;
    Stats window; //!< measurement window
    Stats total;  //!< measurement window + drain
    LinkUsage usage;
    double throughput = 0;
    std::uint64_t offered = 0;     //!< packets created over the cell
    std::uint64_t undelivered = 0; //!< still in flight at the end
    bool hasDrain = false;
    bool drained = true;
    Cycle drainCycles = 0;
    std::uint64_t cycles = 0; //!< network cycles stepped
    int routers = 0;
    double seconds = 0;
    JsonValue doc; //!< deterministic record feeding the digest
    CellTimers timers;

    void
    fail(const std::string &why)
    {
        if (ok)
            error = why;
        ok = false;
    }
};

std::unique_ptr<Network>
buildCellNetwork(const SimCell &sc, const std::shared_ptr<const Topology> &topo)
{
    const ConfigPreset *reg = exp::findPreset(sc.cell.preset);
    if (!reg)
        throw std::runtime_error("unknown preset " + sc.cell.preset);
    // Mirrors exp::Campaign::runCell, so a cell here and the same cell
    // inside a campaign are the same simulation.
    ConfigPreset preset = *reg;
    preset.cfg.seed = sc.cell.netSeed;
    preset.cfg.reliability.enabled = sc.cell.reliability;
    return preset.build(topo);
}

/**
 * Simulate one cell: warmup, measurement window, then (drainCap > 0)
 * a drain with injection stopped. Exceptions and failed output checks
 * mark the result failed instead of propagating.
 */
CellResult
runSimCell(const SimCell &sc, const std::shared_ptr<const Topology> &topo,
           bool traced)
{
    CellResult r;
    r.id = sc.cell.id;
    r.preset = sc.cell.preset;
    r.reliability = sc.cell.reliability;
    r.control = sc.control;
    r.rate = sc.cell.rate;
    r.hasDrain = sc.drainCap > 0;
    const auto t0 = Clock::now();
    try {
        const auto c0 = Clock::now();
        std::unique_ptr<Network> net = buildCellNetwork(sc, topo);
        if (traced)
            r.timers.constructMs = nsSince(c0) * 1e-6;
        r.routers = net->numRouters();
        InjectorConfig icfg;
        icfg.injectionRate = sc.cell.rate;
        icfg.seed = sc.cell.netSeed + 1;
        SyntheticInjector inj(*net, sc.cell.pattern, icfg);
        if (traced) {
            net->enableProfiler();
            r.timers.steps.reserve(sc.warmup + sc.measure + sc.drainCap);
        }

        const auto cycle = [&](bool inject) {
            if (!traced) {
                if (inject)
                    inj.tick();
                net->step();
                return;
            }
            if (inject) {
                const auto a = Clock::now();
                inj.tick();
                r.timers.tickNs += nsSince(a);
            }
            const auto b = Clock::now();
            net->step();
            const std::uint64_t ns = nsSince(b);
            r.timers.stepNs += ns;
            r.timers.steps.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(ns, UINT32_MAX)));
        };

        for (Cycle i = 0; i < sc.warmup; ++i)
            cycle(true);
        const Stats warm = net->stats();
        net->beginMeasurement();
        for (Cycle i = 0; i < sc.measure; ++i)
            cycle(true);
        r.window = net->stats();
        r.throughput = r.window.throughput(net->numNodes(), net->now());
        const LinkUsage windowUsage = net->linkUsage();

        if (r.hasDrain) {
            while (net->packetsInFlight() > 0 && r.drainCycles < sc.drainCap) {
                cycle(false);
                ++r.drainCycles;
            }
            r.drained = net->packetsInFlight() == 0;
        }
        r.total = net->stats();
        r.usage = net->linkUsage();
        r.cycles = net->now();
        r.undelivered = net->packetsInFlight();
        r.offered = warm.packetsCreated + r.total.packetsCreated;
        const std::uint64_t ejected =
            warm.packetsEjected + r.total.packetsEjected;
        if (traced)
            r.timers.profile = *net->profiler();

        // Output checks.
        const AuditReport audit = auditNetwork(*net);
        if (!audit.clean())
            r.fail("audit: " + audit.violations.front());
        if (ejected > r.offered)
            r.fail("ejected " + std::to_string(ejected) + " > created " +
                   std::to_string(r.offered));
        else if (!sc.cell.reliability &&
                 r.offered - ejected != r.undelivered)
            r.fail("packet conservation: created - ejected != in flight");
        if (sc.control && !r.drained)
            r.fail("control did not drain within the cap");

        r.doc = JsonValue::object();
        r.doc.set("cell", JsonValue(r.id));
        r.doc.set("stats", r.window.toJson());
        r.doc.set("linkUsage", usageJson(windowUsage));
        if (r.hasDrain) {
            JsonValue d = JsonValue::object();
            d.set("cycles", JsonValue(r.drainCycles));
            d.set("undelivered", JsonValue(r.undelivered));
            d.set("stats", r.total.toJson());
            r.doc.set("drain", std::move(d));
        }
    } catch (const std::exception &e) {
        r.fail(std::string("exception: ") + e.what());
    }
    r.seconds = secondsSince(t0);
    return r;
}

std::vector<CellResult>
runCells(const std::vector<SimCell> &cells,
         const std::shared_ptr<const Topology> &topo, int jobs, bool traced,
         double &wall)
{
    std::vector<CellResult> out(cells.size());
    wall = runPool(cells.size(), jobs, [&](std::size_t i) {
        out[i] = runSimCell(cells[i], topo, traced);
    });
    return out;
}

std::string
digestOf(const std::vector<CellResult> &cells)
{
    std::vector<JsonValue> docs;
    for (const CellResult &c : cells)
        docs.push_back(c.ok ? c.doc : JsonValue("failed:" + c.id));
    return digestOf(docs);
}

// ---------------------------------------------------------------------
// Workload outcome and per-layer figures
// ---------------------------------------------------------------------

struct Outcome
{
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    double wall = 0;
    double setup = 0;
    std::uint64_t routerCycles = 0;
    std::uint64_t states = 0;
    double throughput = 0;
    std::vector<std::uint64_t> latencyHist;
    std::vector<std::string> summary; //!< human-readable result lines
    JsonValue layers = JsonValue::object();

    void
    error(const std::string &what)
    {
        if (errors.size() < 16)
            errors.push_back(what);
    }
    void
    layer(const std::string &name, double v)
    {
        layers.set(name, JsonValue(v));
    }
};

/** Phase ns per router-cycle and the serial-phase share. */
void
phaseLayers(Outcome &o, const obs::PhaseProfiler &prof, double routerCycles)
{
    using obs::Phase;
    const auto per = [&](Phase p) {
        return ratio(prof.phaseNs(p), routerCycles);
    };
    o.layer("phase.wires", per(Phase::Wires));
    o.layer("phase.injection", per(Phase::Injection));
    o.layer("phase.routing", per(Phase::Routing));
    o.layer("phase.switchAlloc", per(Phase::SwitchAlloc));
    o.layer("phase.specialMsg", per(Phase::SpecialMsg));
    o.layer("phase.rotation", per(Phase::Rotation));
    o.layer("phase.fsmTimers", per(Phase::FsmTimers));
    // The phases Network::step() runs on the calling thread only
    // (docs/SCALING.md); everything else is sharded.
    const double serial =
        double(prof.phaseNs(Phase::Faults)) + prof.phaseNs(Phase::SpecialMsg) +
        prof.phaseNs(Phase::Rotation) + prof.phaseNs(Phase::Bubble) +
        prof.phaseNs(Phase::FsmTimers) + prof.phaseNs(Phase::Telemetry);
    o.layer("sim.serial_share", ratio(serial, double(prof.totalNs())));
}

/** Step percentiles and tick cost over traced cells. */
void
timerLayers(Outcome &o, const std::vector<CellResult> &cells)
{
    std::vector<std::uint32_t> steps;
    std::uint64_t tickNs = 0;
    std::uint64_t cycles = 0;
    double constructMs = 0;
    for (const CellResult &c : cells) {
        steps.insert(steps.end(), c.timers.steps.begin(),
                     c.timers.steps.end());
        tickNs += c.timers.tickNs;
        cycles += c.cycles - c.drainCycles; // ticks happen before drain
        constructMs += c.timers.constructMs;
    }
    o.layer("network.construct_ms", constructMs);
    o.layer("network.step_us_p50", percentile(steps, 0.50) * 1e-3);
    o.layer("network.step_us_p99", percentile(steps, 0.99) * 1e-3);
    o.layer("traffic.tick_ns_per_cycle", ratio(double(tickNs), cycles));
}

/** SPIN, NIC and drain figures from the cells' Stats counters. */
void
counterLayers(Outcome &o, const std::vector<CellResult> &cells)
{
    Stats s;
    LinkUsage u;
    std::vector<double> drains;
    for (const CellResult &c : cells) {
        s.mergeFrom(c.total);
        addUsage(u, c.usage);
        if (c.hasDrain && c.drained)
            drains.push_back(double(c.drainCycles));
    }
    const double sent = double(s.probesSent);
    o.layer("core.probes_sent", sent);
    o.layer("core.probe_return_ratio", ratio(s.probesReturned, sent));
    o.layer("core.probe_drop.priority", ratio(s.probeDropPriority, sent));
    o.layer("core.probe_drop.inactive", ratio(s.probeDropInactive, sent));
    o.layer("core.probe_drop.nodep", ratio(s.probeDropNoDep, sent));
    o.layer("core.probe_drop.hops", ratio(s.probeDropHops, sent));
    o.layer("core.probe_drop.stale", ratio(s.probeDropStale, sent));
    o.layer("core.spins", double(s.spins));
    o.layer("core.spins_cancelled", double(s.spinsCancelled));
    o.layer("core.false_positive_spins", double(s.falsePositiveSpins));
    o.layer("core.move_return_ratio",
            ratio(s.movesReturned, double(s.movesSent)));
    o.layer("core.kill_moves", double(s.killMovesSent));
    o.layer("core.sm_contention_drops", double(s.smContentionDrops));
    o.layer("core.link_sm_share",
            ratio(double(u.probeCycles + u.moveCycles), u.totalCycles));
    o.layer("core.drain_cycles_p50", median(drains));
    o.layer("core.drain_cycles_max",
            drains.empty() ? 0.0
                           : *std::max_element(drains.begin(), drains.end()));
    o.layer("nic.retransmits", double(s.retransmits));
    o.layer("nic.dup_drops", double(s.dupDrops));
}

/** Cell-time figures of a pool run on @p jobs workers. */
void
expLayers(Outcome &o, const std::vector<CellResult> &cells, int jobs,
          double wall)
{
    std::vector<double> secs;
    double busy = 0;
    for (const CellResult &c : cells) {
        secs.push_back(c.seconds);
        busy += c.seconds;
    }
    o.layer("exp.cell_s_p50", median(secs));
    o.layer("exp.cell_s_max",
            secs.empty() ? 0.0 : *std::max_element(secs.begin(), secs.end()));
    o.layer("exp.worker_busy_share",
            ratio(busy, double(std::max(jobs, 1)) * wall));
}

/** Topology build time (median of a few) and bytes per router of a
 *  freshly built network, both measured single-threaded. */
void
footprintLayers(Outcome &o, const std::function<Topology()> &makeTopo,
                const std::vector<SimCell> &cells)
{
    o.layer("topology.build_ms",
            timeSetup([&]() { (void)makeTopo(); }) * 1e3);
    const auto topo = std::make_shared<const Topology>(makeTopo());
    std::vector<double> perRouter;
    std::vector<std::string> seen;
    for (const SimCell &sc : cells) {
        if (std::find(seen.begin(), seen.end(), sc.cell.preset) != seen.end())
            continue;
        seen.push_back(sc.cell.preset);
        const std::size_t before = heapInUse();
        std::unique_ptr<Network> net = buildCellNetwork(sc, topo);
        const std::size_t after = heapInUse();
        perRouter.push_back(
            ratio(double(after > before ? after - before : 0),
                  net->numRouters()));
    }
    double sum = 0;
    for (const double v : perRouter)
        sum += v;
    o.layer("network.bytes_per_router", ratio(sum, perRouter.size()));
}

/** Simulated-result totals shared by the simulation workloads. */
void
accountCells(Outcome &o, const std::vector<CellResult> &cells)
{
    for (const CellResult &c : cells) {
        o.routerCycles += c.cycles * std::uint64_t(c.routers);
        o.states += c.cycles;
        if (!c.ok)
            o.error(c.id + ": " + c.error);
    }
}

// ---------------------------------------------------------------------
// mesh-sweep
// ---------------------------------------------------------------------

exp::SweepSpec
meshSweepSpec(std::uint64_t seed)
{
    exp::SweepSpec spec;
    spec.name = "perfbench-mesh-sweep";
    spec.topology = "mesh8x8";
    spec.presets = kSweepPresets;
    spec.patterns = {Pattern::UniformRandom, Pattern::Transpose};
    spec.rates = kSweepRates;
    spec.seeds = {seed};
    spec.reliability = {false, true};
    // No warmup: the window then spans the whole cell, so "packets
    // ejected <= packets created" is exact on the campaign documents.
    spec.warmup = 0;
    spec.measure = kSweepMeasure;
    return spec;
}

std::vector<SimCell>
simCellsOf(const exp::SweepSpec &spec, Cycle drainCap, bool control)
{
    std::vector<SimCell> cells;
    for (const exp::Cell &c : spec.expand()) {
        SimCell sc;
        sc.cell = c;
        sc.warmup = spec.warmup;
        sc.measure = spec.measure;
        sc.drainCap = drainCap;
        sc.control = control;
        cells.push_back(sc);
    }
    return cells;
}

/** A campaign cell document as a CellResult, with its output check. */
CellResult
fromCampaignCell(const exp::SweepSpec &spec, const JsonValue &c)
{
    CellResult r;
    r.id = c["cell"].asString();
    r.window = trafficFromJson(c["stats"]);
    r.throughput = c["throughput"].asNumber();
    r.offered = r.window.packetsCreated;
    r.cycles = spec.warmup + spec.measure;
    r.routers = 64;
    if (r.window.packetsEjected > r.window.packetsCreated)
        r.fail("ejected > created");
    r.doc = JsonValue::object();
    r.doc.set("cell", c["cell"]);
    r.doc.set("stats", c["stats"]);
    r.doc.set("linkUsage", c["linkUsage"]);
    return r;
}

/** One Campaign::run; cells that fail are re-run one by one so every
 *  failure is counted instead of aborting the workload. */
std::vector<CellResult>
runCampaign(const exp::SweepSpec &spec, int jobs, double &wall)
{
    exp::CampaignOptions opt;
    opt.jobs = jobs;
    // One audit, at the last cycle of every cell.
    opt.auditInterval = spec.warmup + spec.measure;
    std::vector<CellResult> out;
    const auto t0 = Clock::now();
    try {
        exp::Campaign campaign(spec, opt);
        const JsonValue doc = campaign.run();
        const JsonValue &cells = doc["cells"];
        for (std::size_t i = 0; i < cells.size(); ++i)
            out.push_back(fromCampaignCell(spec, cells.at(i)));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: campaign failed (%s); rerunning "
                             "cells one by one\n",
                     e.what());
        out.clear();
        const auto topo = std::make_shared<const Topology>(makeMesh(8, 8));
        for (const exp::Cell &cell : spec.expand()) {
            try {
                exp::CellCapture cap;
                cap.auditInterval = opt.auditInterval;
                out.push_back(fromCampaignCell(
                    spec,
                    exp::Campaign::runCell(spec, cell, topo, nullptr, cap)));
            } catch (const std::exception &ce) {
                CellResult r;
                r.id = cell.id;
                r.fail(std::string("exception: ") + ce.what());
                out.push_back(std::move(r));
            }
        }
    }
    wall = secondsSince(t0);
    return out;
}

Outcome
meshSweep(std::uint64_t seed, int jobs, bool trace)
{
    Outcome o;
    const exp::SweepSpec spec = meshSweepSpec(seed);
    const std::vector<SimCell> cells = simCellsOf(spec, 0, false);

    o.setup = timeSetup([&]() {
        const auto topo = std::make_shared<const Topology>(makeMesh(8, 8));
        for (const SimCell &sc : cells)
            (void)buildCellNetwork(sc, topo);
    });

    const std::vector<CellResult> results = runCampaign(spec, jobs, o.wall);
    accountCells(o, results);
    o.attempted = results.size();
    double tput = 0;
    for (const CellResult &r : results) {
        o.failed += r.ok ? 0 : 1;
        tput += r.throughput;
        addHist(o.latencyHist, r.window.latencyHist);
    }
    o.throughput = ratio(tput, results.size());
    o.digest = digestOf(results);

    if (trace) {
        // Serial traced pass: every layer call timed from outside, the
        // profiler on. Its digest must match the -jN campaign's.
        const auto topo = std::make_shared<const Topology>(makeMesh(8, 8));
        double tracedWall = 0;
        const std::vector<CellResult> traced =
            runCells(cells, topo, 1, true, tracedWall);
        if (digestOf(traced) != o.digest)
            o.error("traced -j1 digest differs from the campaign's");
        // The trace overhead compares against the same campaign at -j1.
        double serialWall = 0;
        (void)runCampaign(spec, 1, serialWall);
        // Campaign::run keeps per-cell times to itself, so the runner's
        // cell-time figures come from the same cells on an outside pool.
        double poolWall = 0;
        const std::vector<CellResult> pooled =
            runCells(cells, topo, jobs, false, poolWall);

        obs::PhaseProfiler prof;
        std::uint64_t relNs = 0, relCycles = 0, offNs = 0, offCycles = 0;
        for (const CellResult &c : traced) {
            prof.merge(c.timers.profile);
            (c.reliability ? relNs : offNs) += c.timers.stepNs;
            (c.reliability ? relCycles : offCycles) += c.cycles;
        }
        footprintLayers(o, []() { return makeMesh(8, 8); }, cells);
        phaseLayers(o, prof, 64.0 * prof.cycles());
        timerLayers(o, traced);
        counterLayers(o, traced);
        expLayers(o, pooled, jobs, poolWall);
        o.layer("nic.reliability_step_ratio",
                ratio(ratio(relNs, relCycles), ratio(offNs, offCycles)));
        o.layer("obs.trace_overhead", ratio(tracedWall, serialWall));
    }
    return o;
}

// ---------------------------------------------------------------------
// spin-overload
// ---------------------------------------------------------------------

std::vector<SimCell>
overloadCells(std::uint64_t seed)
{
    std::vector<SimCell> cells;
    for (const OverloadRow &row : kOverloadRows) {
        exp::SweepSpec spec;
        spec.name = "perfbench-spin-overload";
        spec.topology = "mesh8x8";
        spec.presets = {row.preset};
        spec.patterns = {Pattern::UniformRandom};
        spec.rates = row.rates;
        spec.seeds.clear();
        for (int s = 0; s < kOverloadSeeds; ++s)
            spec.seeds.push_back(seed + std::uint64_t(s));
        spec.warmup = kOverloadWarmup;
        spec.measure = kOverloadMeasure;
        for (SimCell &sc : simCellsOf(spec, kOverloadDrainCap, row.control))
            cells.push_back(std::move(sc));
    }
    return cells;
}

void
accountOverload(Outcome &o, const std::vector<CellResult> &results)
{
    accountCells(o, results);
    double tput = 0;
    for (const CellResult &r : results) {
        // An operation is an offered packet; a failed cell that never
        // reported its offer still counts one failed operation.
        const std::uint64_t offered = std::max<std::uint64_t>(r.offered, 1);
        o.attempted += offered;
        o.failed += r.ok ? r.undelivered : offered;
        tput += r.throughput;
        // Every control packet arrives, so its latencies are unbiased.
        if (r.control)
            addHist(o.latencyHist, r.total.latencyHist);
    }
    o.throughput = ratio(tput, results.size());

    for (const OverloadRow &row : kOverloadRows) {
        std::uint64_t offered = 0, undelivered = 0, cells = 0, drained = 0;
        Cycle longest = 0;
        for (const CellResult &r : results) {
            if (r.preset != row.preset)
                continue;
            offered += r.offered;
            undelivered += r.undelivered;
            ++cells;
            if (r.drained) {
                ++drained;
                longest = std::max(longest, r.drainCycles);
            }
        }
        o.summary.push_back(
            std::string(row.preset) + ": " + std::to_string(undelivered) +
            " of " + std::to_string(offered) +
            " packets undelivered at the cap, " + std::to_string(drained) +
            "/" + std::to_string(cells) + " cells drained (longest drain " +
            std::to_string(longest) + " cycles)");
    }
}

Outcome
spinOverload(std::uint64_t seed, int jobs, bool trace)
{
    Outcome o;
    const std::vector<SimCell> cells = overloadCells(seed);
    o.setup = timeSetup([&]() {
        const auto topo = std::make_shared<const Topology>(makeMesh(8, 8));
        for (const SimCell &sc : cells)
            (void)buildCellNetwork(sc, topo);
    });

    const auto t0 = Clock::now();
    const auto topo = std::make_shared<const Topology>(makeMesh(8, 8));
    double poolWall = 0;
    const std::vector<CellResult> results =
        runCells(cells, topo, jobs, false, poolWall);
    o.wall = secondsSince(t0);
    accountOverload(o, results);
    o.digest = digestOf(results);

    if (trace) {
        double tracedWall = 0;
        const std::vector<CellResult> traced =
            runCells(cells, topo, jobs, true, tracedWall);
        if (digestOf(traced) != o.digest)
            o.error("traced digest differs from the untraced pass");
        obs::PhaseProfiler prof;
        for (const CellResult &c : traced)
            prof.merge(c.timers.profile);
        footprintLayers(o, []() { return makeMesh(8, 8); }, cells);
        phaseLayers(o, prof, 64.0 * prof.cycles());
        timerLayers(o, traced);
        counterLayers(o, traced);
        expLayers(o, results, jobs, poolWall);
        o.layer("obs.trace_overhead", ratio(tracedWall, poolWall));
    }
    return o;
}

// ---------------------------------------------------------------------
// model-check
// ---------------------------------------------------------------------

struct ScenarioRun
{
    verify::ExploreResult explored;
    double exploreSeconds = 0;
    Stats baseline; //!< the unperturbed run, drained
    Cycle baselineCycles = 0;
    int routers = 0;
    int nodes = 0;
    CellTimers timers;
    std::string error;
};

/** Explore one scenario, then replay its unperturbed run to drain. */
ScenarioRun
checkScenario(const verify::Scenario &sc, bool traced)
{
    ScenarioRun s;
    try {
        verify::ExplorerOptions opt;
        opt.budget = kModelBudget;
        const auto t0 = Clock::now();
        s.explored = verify::explore(sc, opt);
        s.exploreSeconds = secondsSince(t0);
        if (!s.explored.violations.empty())
            s.error = "violation";
        else if (!s.explored.exhausted)
            s.error = "exploration stopped early";

        std::unique_ptr<Network> net = sc.build(kNeverCycle);
        s.routers = net->numRouters();
        s.nodes = net->numNodes();
        if (traced)
            net->enableProfiler();
        while (net->packetsInFlight() > 0 && net->now() < kModelBaselineCap) {
            if (!traced) {
                net->step();
                continue;
            }
            const auto b = Clock::now();
            net->step();
            const std::uint64_t ns = nsSince(b);
            s.timers.stepNs += ns;
            s.timers.steps.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(ns, UINT32_MAX)));
        }
        s.baseline = net->stats();
        s.baselineCycles = net->now();
        if (traced)
            s.timers.profile = *net->profiler();
        const AuditReport audit = auditNetwork(*net);
        if (net->packetsInFlight() > 0 && s.error.empty())
            s.error = "unperturbed run did not drain";
        if (!audit.clean() && s.error.empty())
            s.error = "audit: " + audit.violations.front();
        if (s.baseline.packetsEjected > s.baseline.packetsCreated &&
            s.error.empty())
            s.error = "ejected > created";
    } catch (const std::exception &e) {
        s.error = std::string("exception: ") + e.what();
    }
    return s;
}

std::vector<ScenarioRun>
runModel(bool traced, double &wall)
{
    const auto t0 = Clock::now();
    std::vector<ScenarioRun> out;
    for (const std::string &name : kModelScenarios) {
        const verify::Scenario *sc = verify::findScenario(name);
        if (!sc) {
            ScenarioRun s;
            s.error = "unknown scenario";
            out.push_back(std::move(s));
            continue;
        }
        out.push_back(checkScenario(*sc, traced));
    }
    wall = secondsSince(t0);
    return out;
}

std::string
digestOf(const std::vector<ScenarioRun> &runs)
{
    std::vector<JsonValue> docs;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ScenarioRun &s = runs[i];
        JsonValue d = JsonValue::object();
        d.set("scenario", JsonValue(kModelScenarios[i]));
        d.set("error", JsonValue(s.error));
        d.set("runs", JsonValue(s.explored.runs));
        d.set("statesVisited", JsonValue(s.explored.statesVisited));
        d.set("prunedRuns", JsonValue(s.explored.prunedRuns));
        d.set("choicePoints", JsonValue(s.explored.choicePoints));
        d.set("cyclesSimulated", JsonValue(s.explored.cyclesSimulated));
        d.set("baselineCycles", JsonValue(s.baselineCycles));
        d.set("baseline", s.baseline.toJson());
        docs.push_back(std::move(d));
    }
    return digestOf(docs);
}

Outcome
modelCheck(bool trace)
{
    Outcome o;
    o.setup = timeSetup([&]() {
        for (const std::string &name : kModelScenarios)
            if (const verify::Scenario *sc = verify::findScenario(name))
                (void)sc->build(kNeverCycle);
    });
    const std::vector<ScenarioRun> runs = runModel(false, o.wall);
    double tput = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ScenarioRun &s = runs[i];
        ++o.attempted;
        if (!s.error.empty()) {
            ++o.failed;
            o.error(kModelScenarios[i] + ": " + s.error);
        }
        o.routerCycles += (s.explored.cyclesSimulated + s.baselineCycles) *
                          std::uint64_t(s.routers);
        o.states += s.explored.statesVisited;
        tput += ratio(s.baseline.flitsEjected,
                      double(s.nodes) * double(s.baselineCycles));
        addHist(o.latencyHist, s.baseline.latencyHist);
    }
    o.throughput = ratio(tput, runs.size());
    o.digest = digestOf(runs);

    if (trace) {
        double tracedWall = 0;
        const std::vector<ScenarioRun> traced = runModel(true, tracedWall);
        if (digestOf(traced) != o.digest)
            o.error("traced digest differs from the untraced pass");
        std::uint64_t states = 0, runsN = 0, pruned = 0;
        double exploreSeconds = 0;
        obs::PhaseProfiler prof;
        std::vector<std::uint32_t> steps;
        double routerCycles = 0;
        for (const ScenarioRun &s : traced) {
            states += s.explored.statesVisited;
            runsN += s.explored.runs;
            pruned += s.explored.prunedRuns;
            exploreSeconds += s.exploreSeconds;
            prof.merge(s.timers.profile);
            steps.insert(steps.end(), s.timers.steps.begin(),
                         s.timers.steps.end());
            routerCycles += double(s.routers) * s.timers.profile.cycles();
        }
        o.layer("verify.states", double(states));
        o.layer("verify.runs", double(runsN));
        o.layer("verify.pruned_ratio", ratio(pruned, double(runsN)));
        o.layer("verify.us_per_state", ratio(exploreSeconds * 1e6, states));
        // Phase split of the scenarios' unperturbed runs.
        phaseLayers(o, prof, routerCycles);
        o.layer("network.step_us_p50", percentile(steps, 0.50) * 1e-3);
        o.layer("network.step_us_p99", percentile(steps, 0.99) * 1e-3);
        o.layer("obs.trace_overhead", ratio(tracedWall, o.wall));
    }
    return o;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

const char *kUsage =
    "usage: perfbench_harness --workload NAME --seed N --jobs P [--trace]\n"
    "  NAME: mesh-sweep | spin-overload | model-check\n";

/**
 * Peak resident set of this process image, MiB. Read from VmHWM: the
 * getrusage() high-water mark survives exec() and would report the
 * launching process's footprint for small workloads.
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    int jobs = 1;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        try {
            if (a == "--workload" && hasValue)
                workload = argv[++i];
            else if (a == "--seed" && hasValue)
                seed = std::stoull(argv[++i]);
            else if (a == "--jobs" && hasValue)
                jobs = std::max(1, std::stoi(argv[++i]));
            else if (a == "--trace")
                trace = true;
            else
                throw std::invalid_argument(a);
        } catch (const std::exception &) {
            std::fputs(kUsage, stderr);
            return 2;
        }
    }

    Outcome o;
    if (workload == "mesh-sweep") {
        o = meshSweep(seed, jobs, trace);
    } else if (workload == "spin-overload") {
        o = spinOverload(seed, jobs, trace);
    } else if (workload == "model-check") {
        o = modelCheck(trace);
    } else {
        std::fputs(kUsage, stderr);
        return 2;
    }

    const double simSeconds = std::max(o.wall - o.setup, 1e-9);
    JsonValue e2e = JsonValue::object();
    e2e.set("wall_s", JsonValue(o.wall));
    e2e.set("setup_s", JsonValue(o.setup));
    e2e.set("router_cycles_per_s", JsonValue(o.routerCycles / simSeconds));
    e2e.set("states_per_s", JsonValue(o.states / simSeconds));
    e2e.set("peak_rss_mb", JsonValue(peakRssMiB()));
    e2e.set("accepted_throughput", JsonValue(o.throughput));
    e2e.set("sim_latency_p50",
            JsonValue(obs::histogramPercentile(o.latencyHist, 0.50)));
    e2e.set("sim_latency_p99",
            JsonValue(obs::histogramPercentile(o.latencyHist, 0.99)));
    e2e.set("delivered_share",
            JsonValue(1.0 - ratio(double(o.failed), double(o.attempted))));

    JsonValue errors = JsonValue::array();
    for (const std::string &e : o.errors)
        errors.push(JsonValue(e));
    JsonValue summary = JsonValue::array();
    for (const std::string &line : o.summary)
        summary.push(JsonValue(line));

    JsonValue doc = JsonValue::object();
    doc.set("workload", JsonValue(workload));
    doc.set("seed", JsonValue(seed));
    doc.set("jobs", JsonValue(jobs));
    doc.set("attempted", JsonValue(o.attempted));
    doc.set("failed", JsonValue(o.failed));
    doc.set("errors", std::move(errors));
    doc.set("digest", JsonValue(o.digest));
    doc.set("summary", std::move(summary));
    doc.set("e2e", std::move(e2e));
    if (trace)
        doc.set("layers", std::move(o.layers));
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}
