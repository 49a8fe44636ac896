#include "deadlock/Invariants.hh"

#include <sstream>

#include "core/SpinManager.hh"
#include "core/SpinUnit.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin
{

std::string
AuditReport::toString() const
{
    std::ostringstream os;
    os << violations.size() << " violation(s)";
    for (const std::string &v : violations)
        os << "\n  - " << v;
    return os.str();
}

obs::JsonValue
AuditReport::toJson() const
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", "spin-audit/v1");
    doc.set("cycle", static_cast<std::uint64_t>(cycle));
    doc.set("clean", clean());
    obs::JsonValue arr = obs::JsonValue::array();
    for (const std::string &v : violations)
        arr.push(v);
    doc.set("violations", std::move(arr));
    return doc;
}

namespace
{

template <typename... Args>
void
report(AuditReport &rep, const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    rep.violations.push_back(os.str());
}

} // namespace

AuditReport
auditNetwork(Network &net)
{
    AuditReport rep;
    rep.cycle = net.now();
    const fault::FaultInjector *fi = net.faults();
    const int vcs = net.config().totalVcs();
    const int depth = net.config().vcDepth;

    // 1. Credit conservation per link per VC: the upstream credit
    //    counter must equal depth minus everything it has not been
    //    credited for yet (buffered downstream, flits on the wire,
    //    credits on the reverse wire). Dead routers purge buffers
    //    without crediting upstream and failed links strand whatever
    //    was on the wire -- that modeled loss is permanent, so links
    //    touching faulted hardware are exempt.
    for (int li = 0; li < net.numLinks(); ++li) {
        const Link &l = net.link(li);
        const LinkSpec &spec = l.spec();
        if (fi && (fi->linkFailed(li) || fi->routerDead(spec.src) ||
                   fi->routerDead(spec.dst))) {
            continue;
        }
        const Router &up = net.router(spec.src);
        const Router &down = net.router(spec.dst);
        for (VcId v = 0; v < vcs; ++v) {
            const int credits = up.output(spec.srcPort).credits(v);
            const int buffered = down.input(spec.dstPort).vc(v).size();
            const int wire = l.inFlightFlits(v);
            const int back = l.inFlightCredits(v);
            if (credits + buffered + wire + back != depth) {
                report(rep, "credit imbalance R", spec.src, ":p",
                       spec.srcPort, "->R", spec.dst, " vc", v,
                       ": credits=", credits, " buffered=", buffered,
                       " wire=", wire, " back=", back, " depth=",
                       depth);
            }
        }
    }

    for (RouterId r = 0; r < net.numRouters(); ++r) {
        Router &rt = net.router(r);
        if (rt.dead())
            continue; // markDead purged its state wholesale
        const SpinUnit *su = rt.spinUnit();
        int frozen_found = 0;

        for (PortId p = 0; p < rt.radix(); ++p) {
            for (VcId v = 0; v < vcs; ++v) {
                const VirtualChannel &vc = rt.input(p).vc(v);

                // 2. Ownership: buffered flits belong to the owner and
                //    are not already ejected.
                if (!vc.empty()) {
                    if (!vc.active()) {
                        report(rep, "R", r, " in", p, " vc", v,
                               " holds flits while idle");
                    } else if (vc.front().pkt != vc.owner()) {
                        report(rep, "R", r, " in", p, " vc", v,
                               " front flit not owned by resident "
                               "packet");
                    }
                    if (vc.owner() &&
                        vc.owner()->ejectCycle != kNeverCycle) {
                        report(rep, "R", r, " in", p, " vc", v,
                               " holds flits of an ejected packet #",
                               vc.owner()->id);
                    }
                }

                // 3. Granted routes point at consistently-owned
                //    downstream VCs.
                if (vc.active() && vc.grantedVc != kInvalidId &&
                    vc.routeValid && !rt.isNicPort(vc.request) &&
                    vc.owner()) {
                    const OutputUnit &out = rt.output(vc.request);
                    if (out.ownerOf(vc.grantedVc) != vc.owner()->id) {
                        report(rep, "R", r, " in", p, " vc", v,
                               " granted down-vc ", vc.grantedVc,
                               " owned by #",
                               out.ownerOf(vc.grantedVc),
                               " not resident #", vc.owner()->id);
                    }
                }

                // 4. A parked head has nothing to wake for: every
                //    output change that could let it move would have
                //    moved the router's generation.
                if (rt.parkingStale(p, v)) {
                    report(rep, "R", r, " in", p, " vc", v,
                           " parked while re-routing would act (idle "
                           "allowed VC at a candidate port, or target "
                           "unreachable)");
                }

                // 5. A quiet router has nothing to wake for: every
                //    event that could give its routing or switch phase
                //    work would have cleared the flag.
                if (rt.quietStale(p, v)) {
                    report(rep, "R", r, " in", p, " vc", v,
                           rt.routingQuiet() ? " routing-quiet" : "",
                           rt.switchQuiet() ? " switch-quiet" : "",
                           " while its phase would act on it");
                }

                // 6. Freeze bookkeeping matches the SpinUnit.
                if (vc.frozen) {
                    ++frozen_found;
                    if (!su) {
                        report(rep, "R", r, " frozen VC without a SPIN "
                               "unit");
                    } else {
                        bool listed = false;
                        for (const auto &e : su->frozenEntries())
                            listed |= e.inport == p && e.vc == v;
                        if (!listed) {
                            report(rep, "R", r, " in", p, " vc", v,
                                   " frozen but not in the unit's "
                                   "entry list");
                        }
                    }
                }
            }
        }

        if (su) {
            if (static_cast<int>(su->frozenEntries().size()) !=
                frozen_found) {
                report(rep, "R", r, " tracks ",
                       su->frozenEntries().size(),
                       " frozen entries but ", frozen_found,
                       " VCs are frozen");
            }
            if (su->victim().active && su->frozenEntries().empty()) {
                report(rep, "R", r,
                       " victim context active with no frozen VCs");
            }
            if (!su->victim().active && frozen_found > 0) {
                report(rep, "R", r,
                       " frozen VCs without an active victim context");
            }
            // Stale victim: the committed spin cycle has passed but the
            // entries were neither rotated nor cancelled -- a frozen-VC
            // leak (the failure signature of a lost cancellation, e.g.
            // the SkipCancelUnfreeze mutation).
            if (su->victim().active &&
                su->victim().spinCycle < net.now()) {
                report(rep, "R", r, " victim context stale: spin cycle ",
                       su->victim().spinCycle, " passed at cycle ",
                       net.now(), " with ", su->frozenEntries().size(),
                       " VC(s) still frozen");
            }
        }
    }

    // 7. Flit conservation over the network's lifetime: every created
    //    flit is still queued at its NIC, buffered in a router, on a
    //    wire, or was ejected or lost.
    std::uint64_t queued = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t buffered = 0;
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        queued += net.nic(n).queuedFlits();
        in_flight += net.nic(n).flitsOnWires();
    }
    for (int li = 0; li < net.numLinks(); ++li)
        in_flight += net.link(li).flitsOnWire();
    for (RouterId r = 0; r < net.numRouters(); ++r)
        buffered += static_cast<std::uint64_t>(
            net.router(r).bufferedFlits());
    const FlitLedger &fl = net.flitLedger();
    if (fl.created != queued + buffered + in_flight + fl.ejected + fl.lost) {
        report(rep, "flit conservation: created=", fl.created,
               " but queued=", queued, " buffered=", buffered,
               " in_flight=", in_flight, " ejected=", fl.ejected,
               " lost=", fl.lost);
    }
    return rep;
}

} // namespace spin
