#include "obs/Metrics.hh"

#include <algorithm>

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "routing/RoutingAlgorithm.hh"

namespace spin::obs
{

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

std::unique_ptr<StreamMetricsSink>
StreamMetricsSink::open(const std::string &path)
{
    auto sink = std::unique_ptr<StreamMetricsSink>(new StreamMetricsSink());
    sink->own_.open(path);
    if (!sink->own_)
        return nullptr;
    sink->os_ = &sink->own_;
    return sink;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

void
MetricsRegistry::addCounter(std::string name, CounterFn fn)
{
    counters_.emplace_back(std::move(name), std::move(fn));
}

void
MetricsRegistry::addGauge(std::string name, GaugeFn fn)
{
    gauges_.emplace_back(std::move(name), std::move(fn));
}

void
MetricsRegistry::addHistogram(std::string name, HistogramFn fn)
{
    histograms_.emplace_back(std::move(name), std::move(fn));
}

namespace
{

template <typename T>
std::vector<std::string>
names(const T &instruments)
{
    std::vector<std::string> out;
    out.reserve(instruments.size());
    for (const auto &kv : instruments)
        out.push_back(kv.first);
    return out;
}

} // namespace

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    return names(counters_);
}

std::vector<std::string>
MetricsRegistry::gaugeNames() const
{
    return names(gauges_);
}

std::vector<std::string>
MetricsRegistry::histogramNames() const
{
    return names(histograms_);
}

std::vector<std::uint64_t>
MetricsRegistry::readCounters() const
{
    std::vector<std::uint64_t> out;
    out.reserve(counters_.size());
    for (const auto &kv : counters_)
        out.push_back(kv.second());
    return out;
}

std::vector<double>
MetricsRegistry::readGauges() const
{
    std::vector<double> out;
    out.reserve(gauges_.size());
    for (const auto &kv : gauges_)
        out.push_back(kv.second());
    return out;
}

std::vector<std::vector<std::uint64_t>>
MetricsRegistry::readHistograms() const
{
    std::vector<std::vector<std::uint64_t>> out;
    out.reserve(histograms_.size());
    for (const auto &kv : histograms_)
        out.push_back(kv.second());
    return out;
}

void
MetricsRegistry::readCounters(std::vector<std::uint64_t> &out) const
{
    out.resize(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i)
        out[i] = counters_[i].second();
}

void
MetricsRegistry::readGauges(std::vector<double> &out) const
{
    out.resize(gauges_.size());
    for (std::size_t i = 0; i < gauges_.size(); ++i)
        out[i] = gauges_[i].second();
}

void
MetricsRegistry::readHistograms(
    std::vector<std::vector<std::uint64_t>> &out) const
{
    out.resize(histograms_.size());
    for (std::size_t i = 0; i < histograms_.size(); ++i)
        out[i] = histograms_[i].second();
}

double
histogramPercentile(const std::vector<std::uint64_t> &buckets, double p)
{
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets)
        total += b;
    if (total == 0)
        return 0.0;
    p = std::clamp(p, 1e-9, 1.0);
    const double target = p * double(total);
    double seen = 0.0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const double in_bucket = double(buckets[b]);
        if (in_bucket > 0 && seen + in_bucket >= target) {
            // Bucket b holds values in [2^(b-1), 2^b); interpolate.
            // Buckets beyond 62 cannot occur for cycle-valued data but
            // are clamped anyway so the shift stays defined.
            const unsigned shift =
                static_cast<unsigned>(std::min<std::size_t>(b, 62));
            const double lo = b == 0 ? 0.0 : double(1ull << (shift - 1));
            const double hi = double(1ull << shift);
            return lo + (target - seen) / in_bucket * (hi - lo);
        }
        seen += in_bucket;
    }
    // Rounding pushed the target past the last occupied bucket: the
    // largest bucket's upper edge is the best answer.
    for (std::size_t b = buckets.size(); b-- > 0;) {
        if (buckets[b] > 0)
            return double(1ull << std::min<std::size_t>(b, 62));
    }
    return 0.0;
}

// ---------------------------------------------------------------------
// NetworkMetrics
// ---------------------------------------------------------------------

NetworkMetrics::NetworkMetrics(Network &net, MetricsConfig cfg,
                               std::unique_ptr<MetricsSink> sink)
    : net_(net), cfg_(std::move(cfg)), sink_(std::move(sink))
{
    SPIN_ASSERT(sink_, "null metrics sink");
    SPIN_ASSERT(cfg_.interval > 0, "metrics interval must be positive");
    registerBuiltins();

    // Pre-escape every constant fragment of the window record once;
    // emitWindow() only appends numbers between them.
    if (!cfg_.label.empty())
        cellField_ = ",\"cell\":\"" + JsonValue::escape(cfg_.label) + "\"";
    const auto keyFragments = [](const std::vector<std::string> &ns) {
        std::vector<std::string> out;
        out.reserve(ns.size());
        for (const std::string &n : ns)
            out.push_back("\"" + JsonValue::escape(n) + "\":");
        return out;
    };
    counterKeys_ = keyFragments(reg_.counterNames());
    gaugeKeys_ = keyFragments(reg_.gaugeNames());
    histKeys_ = keyFragments(reg_.histogramNames());

    windowStart_ = net_.now();
    rebaseline();
    emitHeader();
}

NetworkMetrics::~NetworkMetrics()
{
    finish(net_.now());
}

void
NetworkMetrics::registerBuiltins()
{
    Network &n = net_;
    const Stats &s = n.stats();

    const auto c = [&](const char *name, const std::uint64_t *field) {
        reg_.addCounter(name, [field]() { return *field; });
    };
    c("traffic.packetsInjected", &s.packetsInjected);
    c("traffic.packetsEjected", &s.packetsEjected);
    c("traffic.flitsInjected", &s.flitsInjected);
    c("traffic.flitsEjected", &s.flitsEjected);
    c("traffic.latencySum", &s.latencySum);
    c("traffic.hopsSum", &s.hopsSum);
    c("spin.probesSent", &s.probesSent);
    c("spin.probesForked", &s.probesForked);
    c("spin.probesDropped", &s.probesDropped);
    c("spin.probesReturned", &s.probesReturned);
    c("spin.movesSent", &s.movesSent);
    c("spin.probeMovesSent", &s.probeMovesSent);
    c("spin.killMovesSent", &s.killMovesSent);
    c("spin.spins", &s.spins);
    c("spin.falsePositiveSpins", &s.falsePositiveSpins);
    c("spin.spinsCancelled", &s.spinsCancelled);
    c("spin.packetsRotated", &s.packetsRotated);
    c("baseline.bubbleRecoveries", &s.bubbleRecoveries);
    c("faults.linksFailed", &s.linksFailed);
    c("faults.routersFailed", &s.routersFailed);
    c("faults.transientFaults", &s.transientFaults);
    c("faults.packetsUnroutable", &s.packetsUnroutable);
    c("faults.packetsRerouted", &s.packetsRerouted);
    c("faults.packetsLostToFaults", &s.packetsLostToFaults);
    c("faults.packetsCorrupted", &s.packetsCorrupted);
    c("faults.packetsDroppedAtNic", &s.packetsDroppedAtNic);
    c("reliability.crcFails", &s.crcFails);
    c("reliability.linkRetries", &s.linkRetries);
    c("reliability.retransmits", &s.retransmits);
    c("reliability.dupDrops", &s.dupDrops);
    c("reliability.recoveredPackets", &s.recoveredPackets);
    c("reliability.packetsAbandoned", &s.packetsAbandoned);
    c("reliability.watchdogAlarms", &s.watchdogAlarms);

    reg_.addGauge("net.packetsInFlight", [&n]() {
        return double(n.packetsInFlight());
    });
    reg_.addGauge("nic.queuedPackets", [&n]() {
        double q = 0;
        for (NodeId i = 0; i < n.numNodes(); ++i)
            q += double(n.nic(i).queueLength());
        return q;
    });
    reg_.addGauge("spin.smsInFlight", [&n]() {
        const SpinManager *sm = n.spinManager();
        return sm ? double(sm->smsInFlight()) : 0.0;
    });
    reg_.addGauge("faults.pendingEvents", [&n]() {
        const fault::FaultInjector *fi = n.faults();
        if (!fi)
            return 0.0;
        return double(fi->events().size() - fi->applied());
    });

    // Per-vnet input-VC occupancy (flits buffered network-wide), the
    // series the VC-management analyses plot against throughput.
    const int vnets = n.config().vnets;
    for (VnetId v = 0; v < vnets; ++v) {
        reg_.addGauge("occupancy.vnet" + std::to_string(v), [&n, v]() {
            std::uint64_t flits = 0;
            for (RouterId r = 0; r < n.numRouters(); ++r)
                flits += n.router(r).bufferedFlitsInVnet(v);
            return double(flits);
        });
    }
    reg_.addGauge("occupancy.total", [&n]() {
        double flits = 0;
        for (RouterId r = 0; r < n.numRouters(); ++r)
            flits += double(n.router(r).bufferedFlits());
        return flits;
    });

    reg_.addHistogram("latency", [&s]() { return s.latencyHist; });
}

JsonValue
NetworkMetrics::record(const char *kind) const
{
    // Every line is self-describing: consumers validate any record in
    // isolation (check_metrics_schema.py does exactly that).
    JsonValue o = JsonValue::object();
    o.set("schema", JsonValue("spin-metrics/v2"));
    o.set("kind", JsonValue(kind));
    if (!cfg_.label.empty())
        o.set("cell", JsonValue(cfg_.label));
    return o;
}

void
NetworkMetrics::emitHeader()
{
    JsonValue o = record("header");
    o.set("interval", JsonValue(cfg_.interval));
    o.set("startCycle", JsonValue(windowStart_));

    JsonValue cfg = JsonValue::object();
    cfg.set("name", JsonValue(net_.config().name));
    cfg.set("scheme", JsonValue(toString(net_.config().scheme)));
    cfg.set("routing", JsonValue(net_.routing().name()));
    cfg.set("vnets", JsonValue(net_.config().vnets));
    cfg.set("vcsPerVnet", JsonValue(net_.config().vcsPerVnet));
    cfg.set("seed", JsonValue(net_.config().seed));
    cfg.set("numRouters", JsonValue(net_.numRouters()));
    cfg.set("numNodes", JsonValue(net_.numNodes()));
    cfg.set("numLinks", JsonValue(net_.numLinks()));
    o.set("config", std::move(cfg));

    const auto strArr = [](const std::vector<std::string> &v) {
        JsonValue a = JsonValue::array();
        for (const std::string &s : v)
            a.push(JsonValue(s));
        return a;
    };
    o.set("counters", strArr(reg_.counterNames()));
    o.set("gauges", strArr(reg_.gaugeNames()));
    o.set("histograms", strArr(reg_.histogramNames()));
    sink_->line(o.dump(0));
}

void
NetworkMetrics::rebaseline()
{
    lastCounters_ = reg_.readCounters();
    lastHists_ = reg_.readHistograms();
}

void
NetworkMetrics::onMeasurementBegin(Cycle now)
{
    rebaseline();
    windowStart_ = now;
    JsonValue o = record("measurement-begin");
    o.set("cycle", JsonValue(now));
    sink_->line(o.dump(0));
}

void
NetworkMetrics::emitWindow(Cycle now)
{
    // Serialized by hand into a reused buffer -- byte-identical with
    // the JsonValue::dump(0) rendering of the same record, but without
    // the per-window tree allocations (the off/on micro_router gate
    // budgets 2% for the whole enabled engine).
    if (now <= windowStart_)
        return;
    const Cycle elapsed = now - windowStart_;

    reg_.readCounters(curCounters_);
    reg_.readHistograms(curHists_);
    reg_.readGauges(curGauges_);

    std::string &b = buf_;
    b.clear();
    b += "{\"schema\":\"spin-metrics/v2\",\"kind\":\"window\"";
    b += cellField_;
    b += ",\"seq\":";
    JsonValue::appendNumber(b, double(windows_));
    b += ",\"cycleStart\":";
    JsonValue::appendNumber(b, double(windowStart_));
    b += ",\"cycleEnd\":";
    JsonValue::appendNumber(b, double(now));

    // Counter deltas. beginMeasurement re-baselines through
    // onMeasurementBegin, so a cumulative value below its baseline can
    // only mean an out-of-band reset; restart from zero.
    b += ",\"counters\":{";
    const auto &cnames = reg_.counters_;
    std::uint64_t flitsEjected = 0, packetsEjected = 0, latencySum = 0;
    for (std::size_t i = 0; i < curCounters_.size(); ++i) {
        const std::uint64_t delta =
            curCounters_[i] >= lastCounters_[i]
                ? curCounters_[i] - lastCounters_[i]
                : curCounters_[i];
        if (i)
            b += ',';
        b += counterKeys_[i];
        JsonValue::appendNumber(b, double(delta));
        if (cnames[i].first == "traffic.flitsEjected")
            flitsEjected = delta;
        else if (cnames[i].first == "traffic.packetsEjected")
            packetsEjected = delta;
        else if (cnames[i].first == "traffic.latencySum")
            latencySum = delta;
    }

    b += "},\"gauges\":{";
    for (std::size_t i = 0; i < curGauges_.size(); ++i) {
        if (i)
            b += ',';
        b += gaugeKeys_[i];
        JsonValue::appendNumber(b, curGauges_[i]);
    }

    // Histogram bucket deltas (bucket arrays only ever grow).
    b += "},\"hist\":{";
    const auto &hnames = reg_.histograms_;
    std::vector<std::uint64_t> latencyDelta;
    for (std::size_t i = 0; i < curHists_.size(); ++i) {
        std::vector<std::uint64_t> delta(curHists_[i].size(), 0);
        for (std::size_t bk = 0; bk < curHists_[i].size(); ++bk) {
            const std::uint64_t prev =
                bk < lastHists_[i].size() ? lastHists_[i][bk] : 0;
            delta[bk] = curHists_[i][bk] >= prev
                            ? curHists_[i][bk] - prev
                            : curHists_[i][bk];
        }
        if (i)
            b += ',';
        b += histKeys_[i];
        if (delta.empty()) {
            b += "[]";
        } else {
            b += '[';
            for (std::size_t bk = 0; bk < delta.size(); ++bk) {
                if (bk)
                    b += ',';
                JsonValue::appendNumber(b, double(delta[bk]));
            }
            b += ']';
        }
        if (hnames[i].first == "latency")
            latencyDelta = std::move(delta);
    }

    b += "},\"derived\":{\"throughput\":";
    JsonValue::appendNumber(b, double(flitsEjected) /
                                   double(net_.numNodes()) /
                                   double(elapsed));
    b += ",\"latencyAvg\":";
    JsonValue::appendNumber(
        b, packetsEjected ? double(latencySum) / double(packetsEjected)
                          : 0.0);
    b += ",\"latencyP50\":";
    JsonValue::appendNumber(b, histogramPercentile(latencyDelta, 0.5));
    b += ",\"latencyP99\":";
    JsonValue::appendNumber(b, histogramPercentile(latencyDelta, 0.99));
    b += "}}";

    sink_->line(b);
    ++windows_;
    windowStart_ = now;
    std::swap(lastCounters_, curCounters_);
    std::swap(lastHists_, curHists_);
}

void
NetworkMetrics::finish(Cycle now)
{
    if (finished_)
        return;
    finished_ = true;
    emitWindow(now);
    JsonValue o = record("finish");
    o.set("cycle", JsonValue(now));
    o.set("windows", JsonValue(windows_));
    sink_->line(o.dump(0));
    sink_->flush();
}

} // namespace spin::obs
