/**
 * @file
 * Tests for the spin_model verification subsystem (src/verify): the
 * Fig. 4a transition relation, FSM snapshot/restore, canonical state
 * digests, the explorer itself (clean protocol verifies, mutated
 * protocol convicted), trace serialization, and the committed
 * counterexample regression trace.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/SpinManager.hh"
#include "network/Network.hh"
#include "router/Router.hh"
#include "verify/Digest.hh"
#include "verify/Explorer.hh"
#include "verify/Scenarios.hh"
#include "verify/Trace.hh"

namespace spin::verify
{
namespace
{

const Scenario &
ring4()
{
    const Scenario *sc = findScenario("ring4");
    EXPECT_NE(sc, nullptr);
    return *sc;
}

std::unique_ptr<Network>
ring4At(Cycle cycles)
{
    std::unique_ptr<Network> net = ring4().build(kNeverCycle);
    for (Cycle i = 0; i < cycles; ++i)
        net->step();
    return net;
}

// ---------------------------------------------------------------------
// Fig. 4a transition relation
// ---------------------------------------------------------------------

TEST(VerifyTransitions, InitiatorRelationIsExactlyFig4a)
{
    using S = InitState;
    const std::vector<S> all = {S::Off,         S::DetectDeadlock,
                                S::MoveWait,    S::FwdProgress,
                                S::ProbeMoveWait, S::KillMoveWait};
    // Directed edges of the initiator projection of Fig. 4a.
    const std::vector<std::pair<S, S>> edges = {
        {S::Off, S::DetectDeadlock},
        {S::DetectDeadlock, S::MoveWait},
        {S::DetectDeadlock, S::Off},
        {S::MoveWait, S::FwdProgress},
        {S::MoveWait, S::KillMoveWait},
        {S::FwdProgress, S::ProbeMoveWait},
        {S::FwdProgress, S::DetectDeadlock},
        {S::FwdProgress, S::Off},
        {S::ProbeMoveWait, S::FwdProgress},
        {S::ProbeMoveWait, S::KillMoveWait},
        {S::KillMoveWait, S::DetectDeadlock},
        {S::KillMoveWait, S::Off},
    };
    for (const S from : all) {
        for (const S to : all) {
            const bool isEdge =
                from == to ||
                std::find(edges.begin(), edges.end(),
                          std::make_pair(from, to)) != edges.end();
            EXPECT_EQ(initTransitionAllowed(from, to), isEdge)
                << toString(from) << " -> " << toString(to);
        }
    }
}

TEST(VerifyTransitions, FrozenMasksThePaperView)
{
    using P = SpinState;
    const std::vector<P> all = {P::Off,    P::DetectDeadlock,
                                P::Move,   P::Frozen,
                                P::ForwardProgress, P::ProbeMove,
                                P::KillMove};
    for (const P s : all) {
        // Self-loops always allowed; entering/leaving Frozen always
        // allowed (the victim context masks the initiator context).
        EXPECT_TRUE(paperTransitionAllowed(s, s)) << toString(s);
        EXPECT_TRUE(paperTransitionAllowed(s, P::Frozen)) << toString(s);
        EXPECT_TRUE(paperTransitionAllowed(P::Frozen, s)) << toString(s);
    }
    // Unmasked pairs follow the initiator relation.
    EXPECT_TRUE(paperTransitionAllowed(P::Off, P::DetectDeadlock));
    EXPECT_TRUE(paperTransitionAllowed(P::Move, P::ForwardProgress));
    EXPECT_FALSE(paperTransitionAllowed(P::Off, P::Move));
    EXPECT_FALSE(paperTransitionAllowed(P::Move, P::ProbeMove));
    EXPECT_FALSE(paperTransitionAllowed(P::KillMove, P::Move));
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

TEST(VerifySnapshot, RestoreRoundTripsMidRecovery)
{
    // Cycle 44 is mid-recovery on ring4 (t_DD = 32, deadlock formed by
    // ~10): units hold loops, victims and frozen VCs.
    std::unique_ptr<Network> net = ring4At(44);
    const Cycle now = net->now();
    bool sawRecoveryState = false;
    for (int r = 0; r < net->numRouters(); ++r) {
        SpinUnit *su = net->router(r).spinUnit();
        ASSERT_NE(su, nullptr);
        const FsmSnapshot s = su->snapshot(now);
        sawRecoveryState |= s.state != InitState::Off || s.victimActive;
        su->restore(s, now);
        const FsmSnapshot again = su->snapshot(now);
        EXPECT_EQ(s, again) << "router " << r;
    }
    EXPECT_TRUE(sawRecoveryState)
        << "ring4 should be mid-recovery at cycle 44";
}

TEST(VerifySnapshot, SelfRestoreKeepsTheDigest)
{
    std::unique_ptr<Network> net = ring4At(44);
    const Cycle now = net->now();
    SpinManager *mgr = net->spinManager();
    ASSERT_NE(mgr, nullptr);

    const std::uint64_t before = canonicalDigest(*net, true);
    const SmSubstrate sms = mgr->snapshotSms(now);
    std::vector<FsmSnapshot> units;
    for (int r = 0; r < net->numRouters(); ++r)
        units.push_back(net->router(r).spinUnit()->snapshot(now));

    for (int r = 0; r < net->numRouters(); ++r)
        net->router(r).spinUnit()->restore(units[static_cast<size_t>(r)],
                                           now);
    mgr->restoreSms(sms, now);
    EXPECT_EQ(canonicalDigest(*net, true), before);
}

// ---------------------------------------------------------------------
// Canonical digests
// ---------------------------------------------------------------------

TEST(VerifyDigest, DeterministicAcrossIndependentBuilds)
{
    std::unique_ptr<Network> a = ring4().build(kNeverCycle);
    std::unique_ptr<Network> b = ring4().build(kNeverCycle);
    for (Cycle c = 0; c <= 60; ++c) {
        if (c % 20 == 0) {
            EXPECT_EQ(canonicalDigest(*a, true), canonicalDigest(*b, true))
                << "cycle " << c;
        }
        a->step();
        b->step();
    }
}

TEST(VerifyDigest, EvolvingStateChangesTheDigest)
{
    std::unique_ptr<Network> net = ring4().build(kNeverCycle);
    const std::uint64_t empty = canonicalDigest(*net, true);
    for (int i = 0; i < 40; ++i)
        net->step();
    EXPECT_NE(canonicalDigest(*net, true), empty);
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

TEST(VerifyExplorer, BaselineRunQuiescesClean)
{
    ExplorerOptions opt;
    opt.budget = 0;
    const ExploreResult res = explore(ring4(), opt);
    EXPECT_EQ(res.runs, 1u);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_GT(res.statesVisited, 0u);
    EXPECT_EQ(res.choicePoints, 0u);
}

TEST(VerifyExplorer, BudgetOneExploresAndStaysClean)
{
    ExplorerOptions opt;
    opt.budget = 1;
    const ExploreResult res = explore(ring4(), opt);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
    // One child run per undeduplicated Delay/Drop branch, plus the
    // root: the protocol has real choice points on this scenario.
    EXPECT_GT(res.runs, 10u);
    EXPECT_EQ(res.runs, res.choicePoints + 1);
}

TEST(VerifyExplorer, SharedLoopCaseTwoStaysClean)
{
    const Scenario *sc = findScenario("shared8");
    ASSERT_NE(sc, nullptr);
    ExplorerOptions opt;
    opt.budget = 1;
    const ExploreResult res = explore(*sc, opt);
    EXPECT_TRUE(res.exhausted);
    EXPECT_TRUE(res.violations.empty());
}

TEST(VerifyExplorer, MutationIsConvictedWithMinimalTrace)
{
    ExplorerOptions opt;
    opt.budget = 1;
    opt.mutation = ProtocolMutation::SkipCancelUnfreeze;
    const ExploreResult res = explore(ring4(), opt);
    ASSERT_FALSE(res.violations.empty());
    const Violation minimal = minimize(ring4(), res.violations.front());
    EXPECT_EQ(minimal.kind, "audit");
    EXPECT_LE(minimal.run.choices.size(), 1u);

    const ReplayResult rep = replay(ring4(), minimal.run);
    ASSERT_TRUE(rep.violated);
    EXPECT_EQ(rep.violation.kind, minimal.kind);
    EXPECT_EQ(rep.violation.cycle, minimal.cycle);
}

// Exact exploration counts. Every one of them moves if a digest
// collision merges two states, or if a child run's skipped prefix (the
// cycles it replays from its parent) hid a decision key, a visited
// state or a violation. Budget 2 runs grandchildren, whose prefix
// already holds one perturbation.
struct PinnedSpace
{
    const char *scenario;
    std::uint64_t runs, states, pruned, choicePoints, cycles;
};

TEST(VerifyExplorer, BudgetTwoStateSpaceIsPinned)
{
    const PinnedSpace want[] = {
        {"ring4", 253, 1657, 230, 252, 16817},
        {"shared8", 307, 1664, 285, 306, 19296},
        {"fault-ring4", 2000, 11447, 1819, 1990, 124253},
        {"dual-torus8", 909, 4390, 822, 908, 38594},
    };
    for (const PinnedSpace &w : want) {
        SCOPED_TRACE(w.scenario);
        const Scenario *sc = findScenario(w.scenario);
        ASSERT_NE(sc, nullptr);
        ExplorerOptions opt;
        opt.budget = 2;
        const ExploreResult res = explore(*sc, opt);
        EXPECT_TRUE(res.exhausted);
        EXPECT_TRUE(res.violations.empty());
        EXPECT_EQ(res.runs, w.runs);
        EXPECT_EQ(res.statesVisited, w.states);
        EXPECT_EQ(res.prunedRuns, w.pruned);
        EXPECT_EQ(res.choicePoints, w.choicePoints);
        EXPECT_EQ(res.cyclesSimulated, w.cycles);
    }
}

struct PinnedConviction
{
    const char *scenario;
    std::uint64_t runs, states, pruned, violations;
    bool exhausted;
};

TEST(VerifyExplorer, MutationConvictionsArePinned)
{
    // Convictions land inside children's checked suffixes; fault-ring4
    // stops early at the default maxViolations (8).
    const PinnedConviction want[] = {
        {"ring4", 33, 292, 26, 1, true},
        {"shared8", 37, 295, 30, 1, true},
        {"fault-ring4", 148, 1496, 114, 8, false},
        {"dual-torus8", 65, 436, 52, 2, true},
    };
    for (const PinnedConviction &w : want) {
        SCOPED_TRACE(w.scenario);
        const Scenario *sc = findScenario(w.scenario);
        ASSERT_NE(sc, nullptr);
        ExplorerOptions opt;
        opt.budget = 1;
        opt.mutation = ProtocolMutation::SkipCancelUnfreeze;
        const ExploreResult res = explore(*sc, opt);
        EXPECT_EQ(res.runs, w.runs);
        EXPECT_EQ(res.statesVisited, w.states);
        EXPECT_EQ(res.prunedRuns, w.pruned);
        EXPECT_EQ(res.violations.size(), w.violations);
        EXPECT_EQ(res.exhausted, w.exhausted);
    }
}

TEST(VerifyExplorer, DualTorusConvictionMinimizesToOneDroppedMove)
{
    const Scenario *sc = findScenario("dual-torus8");
    ASSERT_NE(sc, nullptr);
    ExplorerOptions opt;
    opt.budget = 1;
    opt.mutation = ProtocolMutation::SkipCancelUnfreeze;
    const ExploreResult res = explore(*sc, opt);
    ASSERT_FALSE(res.violations.empty());
    const Violation minimal = minimize(*sc, res.violations.front());
    ASSERT_EQ(minimal.run.choices.size(), 1u);
    EXPECT_EQ(minimal.run.choices[0].cycle, 28u);
    EXPECT_EQ(minimal.run.choices[0].type, SmType::Move);
    EXPECT_EQ(minimal.run.choices[0].action, SmAction::Drop);

    const ReplayResult rep = replay(*sc, minimal.run);
    ASSERT_TRUE(rep.violated);
    EXPECT_EQ(rep.violation.kind, "audit");
    EXPECT_EQ(rep.violation.cycle, 34u);
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

TEST(VerifyTrace, JsonRoundTrip)
{
    Violation v;
    v.kind = "liveness";
    v.message = "no quiescence by cycle 99";
    v.cycle = 99;
    v.run.scenario = "ring4";
    v.run.mutation = ProtocolMutation::SkipKillMove;
    v.run.faultCycle = 48;
    v.run.choices.push_back(
        Choice{17, SmType::Move, 3, 0, 1, SmAction::Drop});
    v.run.choices.push_back(
        Choice{21, SmType::KillMove, 2, 1, 0, SmAction::Delay});

    Violation back;
    std::string err;
    ASSERT_TRUE(traceFromJson(traceToJson(v), back, err)) << err;
    EXPECT_EQ(back.kind, v.kind);
    EXPECT_EQ(back.message, v.message);
    EXPECT_EQ(back.cycle, v.cycle);
    EXPECT_EQ(back.run.scenario, v.run.scenario);
    EXPECT_EQ(back.run.mutation, v.run.mutation);
    EXPECT_EQ(back.run.faultCycle, v.run.faultCycle);
    ASSERT_EQ(back.run.choices.size(), v.run.choices.size());
    for (std::size_t i = 0; i < v.run.choices.size(); ++i)
        EXPECT_EQ(back.run.choices[i], v.run.choices[i]) << "choice " << i;
}

TEST(VerifyTrace, RejectsMalformedDocuments)
{
    Violation out;
    std::string err;
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", "wrong/v0");
    EXPECT_FALSE(traceFromJson(doc, out, err));
    EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(VerifyTrace, CommittedCounterexampleStillReproduces)
{
    // The committed regression trace: skip-cancel-unfreeze plus one
    // dropped move leaves a stale frozen victim on ring4. Replaying it
    // through the full simulator must reproduce the audit violation at
    // the recorded cycle, bit-identically, on every platform.
    const std::string path =
        std::string(SPINNOC_TEST_TRACE_DIR) +
        "/ring4-skip-cancel-unfreeze.json";
    Violation want;
    std::string err;
    ASSERT_TRUE(traceFromFile(path, want, err)) << err;
    const Scenario *sc = findScenario(want.run.scenario);
    ASSERT_NE(sc, nullptr);

    const ReplayResult got = replay(*sc, want.run);
    ASSERT_TRUE(got.violated);
    EXPECT_EQ(got.violation.kind, want.kind);
    EXPECT_EQ(got.violation.cycle, want.cycle);
    EXPECT_EQ(got.violation.message, want.message);
}

} // namespace
} // namespace spin::verify
