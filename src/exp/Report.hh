/**
 * @file
 * Console reports over aggregated campaign results.
 *
 * Every printer consumes the spin-sweep/v1 results document produced by
 * Campaign::run() (see docs/SWEEP.md). spin_sweep prints the latency
 * series for any spec; a built-in figure spec also names the table that
 * matches its paper artifact (SweepSpec.cc), printed after the series.
 */

#ifndef SPINNOC_EXP_REPORT_HH
#define SPINNOC_EXP_REPORT_HH

#include <string>

#include "obs/Json.hh"

namespace spin::exp
{

/** Per-series latency/throughput tables (one block per series). */
void printSeries(const obs::JsonValue &results);

/** The table a built-in figure spec prints after its series. */
enum class CampaignReport
{
    None,              ///< series only (ci-*, scaling-*, spec files)
    SaturationSummary, ///< Figs. 6/7: one `config pattern sat` row per
                       ///< series
    LinkUtilization,   ///< Fig. 8b: flit / probe-SM / move-SM / idle
                       ///< cycle fractions per cell
    SpinCounts,        ///< Fig. 9: spins, false positives and probes per
                       ///< cell, a header per (preset, pattern) group
};

/** Print @p report's table; nothing for CampaignReport::None. */
void printReport(CampaignReport report, const obs::JsonValue &results);

/** Write @p doc to @p path as indented JSON; complains on stderr. */
bool writeJsonFile(const std::string &path, const obs::JsonValue &doc);

/**
 * Wall-clock phase-attribution table over a spin-profile/v1 document
 * (obs::PhaseProfiler::toJson): one row per phase, share-sorted.
 */
void printPhaseProfile(const obs::JsonValue &profile);

} // namespace spin::exp

#endif // SPINNOC_EXP_REPORT_HH
