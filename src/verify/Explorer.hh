/**
 * @file
 * Explicit-state exploration engine for spin_model.
 *
 * The checker is *replay-based stateless*: a run is fully determined by
 * its RunSpec (scenario, mutation, fault cycle, perturbation list), so
 * instead of checkpointing simulator state the explorer re-executes
 * runs from cycle 0 and perturbs the SM schedule through the
 * SpinManager interceptor. Exploration is a breadth-first walk over
 * perturbation prefixes:
 *
 *  - Every run starts from the scenario's deterministic baseline (one
 *    root per fault cycle for fault scenarios).
 *  - While a run executes with spare perturbation budget, every SM
 *    launch it observes is a *choice point*: the explorer enqueues
 *    child runs that additionally Delay or Drop that SM.
 *  - Choice points are deduplicated by (canonical state digest at the
 *    decision, verdicts already issued that cycle, SM identity,
 *    action), so re-executions of a shared prefix do not re-enqueue
 *    the same children.
 *  - Runs whose perturbations are all consumed are cut short when the
 *    canonical digest of the current state was already fully explored
 *    with at least as much remaining budget (visited-state dedup; ring
 *    scenarios additionally canonicalize over rotations).
 *
 * Checked once on every explored state: the runtime flit/credit/freeze
 * auditor (deadlock/Invariants.hh) extended with verification-only
 * invariants, the Fig. 4a FSM transition relation, and per-source
 * committed-spin uniqueness.
 *
 * Check-once. The walk is a FIFO BFS and a child's choices are its
 * parent's plus one appended choice at cycle c, so the parent has run
 * to completion before the child starts, and on every cycle before c
 * the child replays the parent's states exactly (the appended choice
 * cannot match earlier). On those cycles the parent already digested,
 * audited and transition-checked each state and found it clean and
 * not yet quiescent (it was still running at c); every decision key
 * the child could insert is already in the dedup set (the parent had
 * one more unit of budget); and the appended choice is unconsumed, so
 * nothing enters the visited trail and nothing can be pruned. An
 * explored child therefore only steps the network there -- the
 * interceptor still matches choices -- and digests, checks and
 * branches from cycle c on. Roots, replay() and minimize() check
 * every cycle of their run.
 *
 * Checked at the horizon: bounded liveness -- every packet must drain
 * within formation + (k + 2 + budget) full priority rotations, k = m - 1
 * being the paper's spin bound for minimal routing (Theorem 1, p = 0).
 * Checked at quiescence: flit conservation (ejected + fault-lost ==
 * offered).
 */

#ifndef SPINNOC_VERIFY_EXPLORER_HH
#define SPINNOC_VERIFY_EXPLORER_HH

#include <cstdint>
#include <vector>

#include "verify/Scenarios.hh"
#include "verify/Trace.hh"

namespace spin::verify
{

struct ExplorerOptions
{
    /** Max perturbations (Delay/Drop choices) per run. */
    int budget = 2;
    /** Stop after this many runs; 0 = run the frontier dry. */
    std::uint64_t maxRuns = 0;
    /** Stop after collecting this many violations. */
    std::uint64_t maxViolations = 8;
    /** Protocol defect injected into every run. */
    ProtocolMutation mutation = ProtocolMutation::None;
    /** Flag runs that neither quiesce nor get pruned by the horizon. */
    bool checkLiveness = true;
};

struct ExploreResult
{
    std::uint64_t runs = 0;            //!< runs executed
    std::uint64_t statesVisited = 0;   //!< distinct canonical digests
    std::uint64_t prunedRuns = 0;      //!< runs cut short by dedup
    std::uint64_t choicePoints = 0;    //!< distinct (state, SM, action)
    std::uint64_t cyclesSimulated = 0; //!< total cycles across runs
    /** False when maxRuns/maxViolations stopped exploration early. */
    bool exhausted = true;
    std::vector<Violation> violations;
};

/** Exhaustively explore @p sc up to @p opt's budget. */
ExploreResult explore(const Scenario &sc, const ExplorerOptions &opt);

/** Outcome of one deterministic re-execution (spin_model --replay). */
struct ReplayResult
{
    bool violated = false;
    Violation violation; //!< valid when violated
    bool quiescent = false;
    Cycle endCycle = 0;
};

/** Re-execute @p spec against its scenario @p sc deterministically. */
ReplayResult replay(const Scenario &sc, const RunSpec &spec);

/**
 * Greedily shrink @p v's perturbation list: drop one choice at a time,
 * keeping the drop whenever the violation (same kind) still
 * reproduces. Returns the minimal reproducing violation.
 */
Violation minimize(const Scenario &sc, const Violation &v);

} // namespace spin::verify

#endif // SPINNOC_VERIFY_EXPLORER_HH
