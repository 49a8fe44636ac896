#include "core/MoveManager.hh"

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "core/SpinUnit.hh"
#include "network/Network.hh"
#include "obs/Tracer.hh"
#include "router/Router.hh"

namespace spin
{

void
MoveManager::processMove(SpecialMsg &&sm, PortId inport,
                         std::vector<SmSend> &sends)
{
    Router &rt = unit_.router();
    Network &net = rt.network();
    Stats &st = net.stats();
    const RouterId self = rt.id();
    const bool is_pm = sm.type == SmType::ProbeMove;
    auto &dropped = is_pm ? st.probeMovesDropped : st.movesDropped;

    const char *const kind = is_pm ? "probe_move_drop" : "move_drop";
    const auto drop = [&](const char *reason) {
        if (obs::Tracer *t = net.trace())
            t->spin(net.now(), kind, self, reason, sm.sender);
    };

    // Returned to its initiator after consuming the whole path?
    if (sm.sender == self && sm.pathIdx == sm.path.size()) {
        const InitState want =
            is_pm ? InitState::ProbeMoveWait : InitState::MoveWait;
        if (unit_.initState() == want) {
            unit_.onMoveReturned(sm, inport, net.now());
        } else {
            ++dropped;
            drop("stale_return");
        }
        return;
    }

    // Transit. A router committed to another recovery drops the SM
    // (source-id latch, paper Sec. IV-C2 Case II).
    const VictimCtx &victim = unit_.victim();
    if (victim.active && victim.source != sm.sender) {
        ++dropped;
        drop("other_recovery");
        return;
    }
    SPIN_ASSERT(sm.pathIdx < sm.path.size(), "move overran its path");
    const PortId outport = sm.path[sm.pathIdx];
    const VcId v = unit_.findFreezable(inport, outport, sm.vnet);
    if (v == kInvalidId) {
        // The dependency traced earlier no longer exists here: the SM
        // is dropped; the initiator will time out and send kill_move.
        ++dropped;
        drop("no_freezable");
        return;
    }

    unit_.freeze(inport, v, outport, sm.sender, sm.spinCycle);

    ++sm.pathIdx;
    sends.push_back(SmSend{std::move(sm), self, outport});
}

void
MoveManager::processKill(SpecialMsg &&sm, PortId inport,
                         std::vector<SmSend> &sends)
{
    Router &rt = unit_.router();
    const RouterId self = rt.id();
    Stats &st = rt.network().stats();

    if (sm.sender == self && sm.pathIdx == sm.path.size()) {
        if (unit_.initState() == InitState::KillMoveWait)
            unit_.onKillReturned(rt.network().now());
        return;
    }

    const VictimCtx &victim = unit_.victim();
    if (victim.active && victim.source != sm.sender) {
        // Frozen for someone else: the kill is not ours to honor.
        ++st.smContentionDrops;
        if (obs::Tracer *t = rt.network().trace())
            t->spin(rt.network().now(), "kill_move_drop", self,
                    "other_recovery", sm.sender);
        return;
    }
    SPIN_ASSERT(sm.pathIdx < sm.path.size(), "kill_move overran its path");
    const PortId outport = sm.path[sm.pathIdx];
    if (victim.active)
        unit_.unfreeze(inport, outport);

    ++sm.pathIdx;
    sends.push_back(SmSend{std::move(sm), self, outport});
}

} // namespace spin
