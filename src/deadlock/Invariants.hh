/**
 * @file
 * Whole-network consistency auditor.
 *
 * Walks every router, link and NIC and cross-checks the distributed
 * state the simulator maintains redundantly: upstream credit counters
 * against downstream buffer occupancy (including credits in flight),
 * VC allocation ownership against resident packets, frozen-VC
 * bookkeeping against SPIN's victim contexts, parked heads against
 * their routers' output VCs, quiet routers against the work their
 * phases would find, and conservation of flits over the network's
 * lifetime (created = queued + buffered + in flight + ejected + lost).
 *
 * Tests call this after stress runs; it is also handy interactively
 * when extending the router. Violations are returned as messages, not
 * panics, so a test can print all of them at once.
 */

#ifndef SPINNOC_DEADLOCK_INVARIANTS_HH
#define SPINNOC_DEADLOCK_INVARIANTS_HH

#include <string>
#include <vector>

#include "common/Types.hh"
#include "obs/Json.hh"

namespace spin
{

class Network;

/** Result of one audit pass. */
struct AuditReport
{
    /** Cycle the audit ran at. */
    Cycle cycle = 0;
    std::vector<std::string> violations;
    bool clean() const { return violations.empty(); }
    std::string toString() const;
    /** Machine-readable form (schema "spin-audit/v1") for CI
     *  artifacts and the model checker's counterexample traces. */
    obs::JsonValue toJson() const;
};

/**
 * Audit @p net. Safe to call at any cycle boundary (between step()
 * calls); mid-rotation states are accounted for.
 *
 * @param net the network (not modified; non-const only because the
 *        component accessors are non-const)
 */
AuditReport auditNetwork(Network &net);

} // namespace spin

#endif // SPINNOC_DEADLOCK_INVARIANTS_HH
