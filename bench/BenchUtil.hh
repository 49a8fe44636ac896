/**
 * @file
 * Shared harness for the classic table/figure benches (fig03, fig08a,
 * the ablations and chaos_smoke): one CLI option set, metrics/trace/
 * profile attachment, a wall-clock watchdog and the JSON reporter. The
 * latency and recovery figures (Figs. 6, 7, 8b, 9) are sweep campaigns
 * and run through `spin_sweep --spec figNN` instead. The flags:
 *
 *   --fast           quarter-scale run for smoke testing
 *   --seed N         override the preset's RNG seed
 *   --threads N      threads inside each simulated network
 *   --reliability and its knobs
 *
 * are read by every bench. The rest are opt-in (Options::Reads), and
 * each bench passes the groups it reads to Options::parse:
 *
 *   --warmup N, --measure N  injection windows      chaos_smoke
 *   --json PATH      machine-readable results       fig03, ablations,
 *                                                   chaos_smoke
 *   --trace PATH     Chrome trace (chrome://tracing chaos_smoke
 *                    / Perfetto) of the network
 *   --faults PATH    replace the built-in faults    chaos_smoke
 *   --metrics PATH, --metrics-interval N            fig03, chaos_smoke
 *                    spin-metrics/v2 JSONL
 *   --profile        per-phase wall-clock split     fig03
 *   --wall-limit N   wall-clock watchdog            chaos_smoke
 *
 * Unknown flags, and flags the bench does not read, are rejected with
 * the usage message (exit 2). The printed rows match the paper's table
 * or figure; absolute numbers differ from the paper's gem5 testbed,
 * the *shape* is what EXPERIMENTS.md validates.
 */

#ifndef SPINNOC_BENCH_BENCHUTIL_HH
#define SPINNOC_BENCH_BENCHUTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/Logging.hh"
#include "exp/ArgParse.hh"
#include "exp/Report.hh"
#include "fault/FaultSchedule.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "obs/Metrics.hh"
#include "obs/Profiler.hh"
#include "obs/Tracer.hh"
#include "traffic/SyntheticInjector.hh"

namespace spin::bench
{

/** Common CLI options. */
struct Options
{
    Cycle warmup = 2000;
    Cycle measure = 4000;
    bool fast = false;
    std::uint64_t seed = 0;
    bool seedSet = false;
    std::string jsonPath;
    std::string tracePath;
    std::string faultsPath;
    std::string metricsPath;
    Cycle metricsInterval = 256;
    bool profile = false;
    /** Threads inside each simulated network's step() (--threads).
     *  Results are bit-identical for any value (docs/SCALING.md), so
     *  this is an execution knob and never lands in the JSON export. */
    std::uint64_t threads = 1;
    /** End-to-end reliability (--reliability and friends). Defaults
     *  mirror ReliabilityConfig; the knobs only take effect when
     *  reliability is on, so reliability-off runs stay byte-identical
     *  to historical baselines. */
    bool reliability = false;
    std::uint64_t retxTimeout = 512;
    std::uint64_t retxMax = 5;
    std::uint64_t linkRetries = 3;
    std::uint64_t watchdog = 100000;
    /** Wall-clock watchdog in seconds (--wall-limit); 0 disables. On
     *  overrun the bench dumps telemetry (plus NIC retransmit state
     *  when reliability is on) and fails fast instead of hanging CI. */
    std::uint64_t wallLimit = 0;

    /**
     * Flags a bench opts into. Every bench reads --fast, --seed,
     * --threads and --reliability with its knobs; a flag in a group
     * the bench does not declare is refused (exit 2), never silently
     * ignored.
     */
    enum Reads : unsigned
    {
        kReadsWindows = 1u << 0,   //!< --warmup, --measure
        kReadsJson = 1u << 1,      //!< --json
        kReadsTrace = 1u << 2,     //!< --trace
        kReadsFaults = 1u << 3,    //!< --faults
        kReadsMetrics = 1u << 4,   //!< --metrics, --metrics-interval
        kReadsProfile = 1u << 5,   //!< --profile
        kReadsWallLimit = 1u << 6, //!< --wall-limit
        kReadsAll = (1u << 7) - 1,
    };

    /** One flag: where its value lands, the Reads group a bench must
     *  declare to accept it (0 = every bench) and its help text. */
    struct Flag
    {
        exp::ArgSpec spec;
        unsigned needs;
        const char *help;
        bool seen = false;
    };

    /** The flag table, bound to @p o's fields. */
    static std::vector<Flag>
    flags(Options &o)
    {
        return {
            {exp::argU64("--warmup", &o.warmup), kReadsWindows,
             "  --warmup N     warmup cycles\n"},
            {exp::argU64("--measure", &o.measure), kReadsWindows,
             "  --measure N    measurement cycles\n"},
            {exp::argFlag("--fast", &o.fast), 0,
             "  --fast         quarter-scale smoke run\n"},
            {exp::argU64("--seed", &o.seed, &o.seedSet), 0,
             "  --seed N       override the preset RNG seed\n"},
            {exp::argStr("--json", &o.jsonPath), kReadsJson,
             "  --json PATH    write results as JSON\n"},
            {exp::argStr("--trace", &o.tracePath), kReadsTrace,
             "  --trace PATH   write a Chrome trace of the first network\n"},
            {exp::argStr("--faults", &o.faultsPath), kReadsFaults,
             "  --faults PATH  inject faults from a spin-faults/v2 spec\n"},
            {exp::argStr("--metrics", &o.metricsPath), kReadsMetrics,
             "  --metrics PATH spin-metrics/v2 JSONL of every simulated "
             "network\n"},
            {exp::argU64("--metrics-interval", &o.metricsInterval),
             kReadsMetrics,
             "  --metrics-interval N  metrics window in cycles "
             "(default 256)\n"},
            {exp::argFlag("--profile", &o.profile), kReadsProfile,
             "  --profile      per-phase wall-clock attribution\n"},
            {exp::argU64("--threads", &o.threads), 0,
             "  --threads N    threads inside each simulated network\n"
             "                 (default 1; bit-identical results for "
             "any N)\n"},
            {exp::argFlag("--reliability", &o.reliability), 0,
             "  --reliability  end-to-end reliable delivery (CRC, link "
             "retry,\n"
             "                 NIC retransmission; docs/FAULTS.md)\n"},
            {exp::argU64("--retx-timeout", &o.retxTimeout), 0,
             "  --retx-timeout N  base ack timeout in cycles "
             "(default 512)\n"},
            {exp::argU64("--retx-max", &o.retxMax), 0,
             "  --retx-max N   retransmit attempts before abandoning "
             "(default 5)\n"},
            {exp::argU64("--link-retries", &o.linkRetries), 0,
             "  --link-retries N  per-link retry budget per flit "
             "(default 3)\n"},
            {exp::argU64("--watchdog", &o.watchdog), 0,
             "  --watchdog N   livelock watchdog budget in cycles\n"
             "                 (default 100000)\n"},
            {exp::argU64("--wall-limit", &o.wallLimit), kReadsWallLimit,
             "  --wall-limit N fail fast after N wall-clock seconds with "
             "a\n"
             "                 telemetry dump (0 = off)\n"},
        };
    }

    /** Usage text listing the flags of a bench that declares @p reads. */
    static std::string
    usage(unsigned reads = kReadsAll)
    {
        Options scratch;
        std::string text = "options:\n";
        for (const Flag &f : flags(scratch)) {
            if ((f.needs & reads) == f.needs)
                text += f.help;
        }
        return text + "  --help         this message\n";
    }

    /**
     * Testable parser core, built on exp::ArgParse: unknown flags,
     * flags outside @p reads, missing values and malformed numerics all
     * fail with @p err set; never exits. "--help" is treated as an
     * error here so parse() can special-case it.
     */
    static bool
    parseInto(Options &o, int argc, char **argv, std::string &err,
              unsigned reads = kReadsAll)
    {
        std::vector<Flag> table = flags(o);
        std::vector<exp::ArgSpec> specs;
        for (Flag &f : table) {
            if (f.needs != 0)
                f.spec.seen = &f.seen;
            specs.push_back(f.spec);
        }
        if (!exp::parseArgs(argc, argv, specs, err))
            return false;
        for (const Flag &f : table) {
            if (f.seen && (f.needs & reads) != f.needs) {
                err = f.spec.name + " is not read by this bench";
                return false;
            }
        }
        if (o.fast) {
            o.warmup /= 4;
            o.measure /= 4;
        }
        return true;
    }

    /** CLI entry for a bench that declares @p reads: parse or die
     *  with the usage message. */
    static Options
    parse(int argc, char **argv, unsigned reads)
    {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--help") ||
                !std::strcmp(argv[i], "-h")) {
                std::printf("%s", usage(reads).c_str());
                std::exit(0);
            }
        }
        Options o;
        std::string err;
        if (!parseInto(o, argc, argv, err, reads)) {
            std::fprintf(stderr, "%s: %s\n%s", argv[0], err.c_str(),
                         usage(reads).c_str());
            std::exit(2);
        }
        return o;
    }

    /** Apply CLI overrides (--seed, --threads) to a raw config before
     *  building (for benches that assemble their own NetworkConfig). */
    void
    apply(NetworkConfig &cfg) const
    {
        if (seedSet)
            cfg.seed = seed;
        cfg.threads = threads > 0 ? static_cast<int>(threads) : 1;
        if (reliability) {
            cfg.reliability.enabled = true;
            cfg.reliability.ackTimeout = retxTimeout;
            cfg.reliability.maxRetransmits = static_cast<int>(retxMax);
            cfg.reliability.maxLinkRetries =
                static_cast<int>(linkRetries);
            cfg.reliability.watchdogBudget = watchdog;
        }
    }

    /** Apply CLI overrides (--seed, --threads) to a preset before
     *  building. */
    void
    apply(ConfigPreset &p) const
    {
        apply(p.cfg);
    }
};

/**
 * Shared append stream for --metrics: a bench may simulate many
 * networks (fig03 builds one per rate) that all publish into one JSONL
 * file, so the stream is opened once per path and every network gets
 * a borrowing StreamMetricsSink. Returns nullptr (after complaining
 * once) when the path cannot be opened. Benches are single-threaded by
 * construction.
 */
inline std::ostream *
sharedMetricsStream(const std::string &path)
{
    static std::map<std::string, std::unique_ptr<std::ofstream>> streams;
    auto it = streams.find(path);
    if (it == streams.end()) {
        auto os = std::make_unique<std::ofstream>(path);
        if (!*os) {
            std::fprintf(stderr, "cannot open metrics file %s\n",
                         path.c_str());
            os.reset();
        }
        it = streams.emplace(path, std::move(os)).first;
    }
    return it->second ? it->second.get() : nullptr;
}

/** Enable --metrics publication on a freshly built network. @p label
 *  tags every record ("cell" field), e.g. "mesh-spin|uniform|0.42". */
inline void
attachMetrics(Network &net, const Options &opt, const std::string &label)
{
    if (opt.metricsPath.empty())
        return;
    std::ostream *os = sharedMetricsStream(opt.metricsPath);
    if (!os)
        return;
    obs::MetricsConfig mcfg;
    mcfg.interval = opt.metricsInterval > 0 ? opt.metricsInterval : 256;
    mcfg.label = label;
    net.enableMetrics(mcfg, std::make_unique<obs::StreamMetricsSink>(*os));
}

/** Process-wide phase-profile accumulator for --profile: every network
 *  a bench simulates merges its totals here before destruction. */
inline obs::PhaseProfiler &
profileTotals()
{
    static obs::PhaseProfiler totals;
    return totals;
}

/**
 * Wall-clock watchdog for --wall-limit: sampled every ~1024 simulated
 * cycles (cheap enough for inner loops). On overrun it writes the
 * network's telemetry -- including per-NIC retransmit state when any
 * retransmit queue is nonempty -- to spin-wall-limit.json and fails
 * fast, so a livelocked or wedged run leaves forensics instead of
 * hanging CI.
 */
class WallLimitGuard
{
  public:
    explicit WallLimitGuard(std::uint64_t limit_seconds)
        : limit_(limit_seconds),
          start_(std::chrono::steady_clock::now())
    {}

    void
    check(Network &net)
    {
        if (limit_ == 0 || (++ticks_ & 1023u) != 0)
            return;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        if (static_cast<std::uint64_t>(elapsed) < limit_)
            return;
        obs::JsonValue doc = net.telemetryJson();
        obs::JsonValue retx = obs::JsonValue::array();
        for (int n = 0; n < net.numNodes(); ++n) {
            Nic &nic = net.nic(static_cast<NodeId>(n));
            if (nic.retxQueueLength() > 0)
                retx.push(nic.retxJson(net.now()));
        }
        doc.set("retx", std::move(retx));
        const char *path = "spin-wall-limit.json";
        std::ofstream os(path);
        os << doc.dump(2) << '\n';
        SPIN_FATAL("wall-clock limit of ", limit_,
                   "s exceeded at cycle ", net.now(),
                   "; telemetry: ", path);
    }

  private:
    std::uint64_t limit_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t ticks_ = 0;
};

/**
 * Attaches a Chrome trace to the *first* network it is offered, so a
 * bench that builds several networks never interleaves runs in one
 * file.
 */
class TraceAttacher
{
  public:
    explicit TraceAttacher(std::string path) : path_(std::move(path)) {}

    void
    operator()(Network &net)
    {
        if (done_ || path_.empty())
            return;
        if (auto sink = obs::ChromeTraceSink::open(path_)) {
            net.setTracer(std::make_unique<obs::Tracer>(std::move(sink)));
            done_ = true;
        } else {
            std::fprintf(stderr, "cannot open trace file %s\n",
                         path_.c_str());
            path_.clear();
        }
    }

  private:
    std::string path_;
    bool done_ = false;
};

/**
 * Collects the sections of a bench run and, on request, writes them as
 * one JSON document -- the machine-readable twin of the printed tables.
 */
class BenchReporter
{
  public:
    explicit BenchReporter(const std::string &bench_name,
                           const Options &opt)
        : root_(obs::JsonValue::object())
    {
        using obs::JsonValue;
        root_.set("bench", JsonValue(bench_name));
        JsonValue o = JsonValue::object();
        o.set("warmup", JsonValue(opt.warmup));
        o.set("measure", JsonValue(opt.measure));
        o.set("fast", JsonValue(opt.fast));
        if (opt.seedSet)
            o.set("seed", JsonValue(opt.seed));
        if (!opt.faultsPath.empty())
            o.set("faults", JsonValue(opt.faultsPath));
        root_.set("options", std::move(o));
    }

    /** Attach a section (e.g. raw Stats::toJson()). */
    void
    add(const std::string &section, obs::JsonValue v)
    {
        root_.set(section, std::move(v));
    }

    obs::JsonValue &root() { return root_; }

    /** Print/export the --profile summary and write to opt.jsonPath
     *  when --json was given. True on success. */
    bool
    writeIfRequested(const Options &opt)
    {
        if (opt.profile) {
            const obs::JsonValue prof = profileTotals().toJson();
            exp::printPhaseProfile(prof);
            root_.set("profile", prof);
        }
        if (opt.jsonPath.empty())
            return true;
        std::FILE *f = std::fopen(opt.jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         opt.jsonPath.c_str());
            return false;
        }
        const std::string text = root_.dump(2);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote %s\n", opt.jsonPath.c_str());
        return true;
    }

  private:
    obs::JsonValue root_;
};

} // namespace spin::bench

#endif // SPINNOC_BENCH_BENCHUTIL_HH
