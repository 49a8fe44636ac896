#include "verify/Digest.hh"

#include <algorithm>

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "fault/FaultInjector.hh"
#include "network/Network.hh"
#include "router/Router.hh"

namespace spin::verify
{

namespace
{

/** lcm(1..8) * 2: the detection-pick alternation in tickDetect() reads
 *  probeAttempt only through %2 and (/2) % ripe.size() with
 *  ripe.size() <= 8 on the bounded scenarios, so this residue carries
 *  all of its behavioral content while staying bounded. */
constexpr std::uint64_t kAttemptPeriod = 2 * 840;

std::int64_t
rel(Cycle abs, Cycle now)
{
    if (abs == kNeverCycle)
        return std::numeric_limits<std::int64_t>::max();
    return static_cast<std::int64_t>(now) - static_cast<std::int64_t>(abs);
}

/** The router renaming r -> (r + shift) mod n and its inverse. */
struct Rotation
{
    int n;
    int shift;

    /** Canonical index of @p r; -1 for ids outside the network. */
    int
    to(RouterId r) const
    {
        if (r < 0 || r >= n)
            return -1;
        const int c = r + shift;
        return c < n ? c : c - n;
    }

    /** The router renamed to canonical index @p c. */
    RouterId
    from(int c) const
    {
        const int r = c - shift;
        return r >= 0 ? r : r + n;
    }
};

void
hashPacket(Hasher &h, const Packet &p, const Rotation &rot)
{
    // Identity-free normalization: two packets with the same source,
    // destination, class, size and routing phase are interchangeable.
    h.i64(rot.to(p.src));
    h.i64(rot.to(p.dest));
    h.u64(static_cast<std::uint64_t>(p.vnet));
    h.u64(static_cast<std::uint64_t>(p.sizeFlits));
    h.u64(static_cast<std::uint64_t>(p.hops));
    h.i64(rot.to(p.intermediate));
    h.b(p.phaseTwo);
    h.u64(static_cast<std::uint64_t>(p.misroutes));
    h.u64(static_cast<std::uint64_t>(p.globalHops));
    h.b(p.onEscape);
}

void
hashSm(Hasher &h, const SpecialMsg &sm, Cycle now, const Rotation &rot)
{
    h.u64(static_cast<std::uint64_t>(sm.type));
    h.i64(rot.to(sm.sender));
    h.u64(static_cast<std::uint64_t>(sm.vnet));
    h.i64(rel(sm.sendCycle, now));
    h.u64(sm.path.size());
    for (const PortId p : sm.path)
        h.i64(p);
    h.u64(sm.pathIdx);
    h.i64(rel(sm.spinCycle, now));
}

} // namespace

std::uint64_t
digestNetwork(Network &net, int rotation)
{
    const int n = net.numRouters();
    SPIN_ASSERT(rotation >= 0 && rotation < n, "bad rotation ", rotation);
    const Rotation rot{n, rotation};

    const Cycle now = net.now();
    const int vcs = net.config().totalVcs();
    SpinManager *mgr = net.spinManager();
    const fault::FaultInjector *fi = net.faults();
    Hasher h;

    // Routers, in canonical order.
    for (int c = 0; c < n; ++c) {
        const RouterId r = rot.from(c);
        Router &rt = net.router(r);
        h.b(rt.dead());
        if (mgr)
            h.i64(mgr->priorityOf(r, now));
        for (PortId p = 0; p < rt.radix(); ++p) {
            const InputUnit &iu = rt.input(p);
            h.i64(iu.rrPointer);
            for (VcId v = 0; v < vcs; ++v) {
                const VirtualChannel &vc = iu.vc(v);
                h.b(vc.active());
                h.b(vc.frozen);
                h.i64(vc.frozenOutport);
                h.b(vc.routeValid);
                h.i64(vc.request);
                h.i64(vc.grantedVc);
                h.i64(vc.size());
                if (vc.active()) {
                    h.i64(rel(vc.lastProgress(), now));
                    h.i64(rel(vc.activeSince(), now));
                }
                if (!vc.empty()) {
                    const Flit &f = vc.front();
                    h.i64(f.seq);
                    // A flit may not leave the cycle it arrives; older
                    // arrivals are all equivalent.
                    h.b(f.arrivedAt == now);
                    if (f.pkt)
                        hashPacket(h, *f.pkt, rot);
                } else if (vc.owner()) {
                    hashPacket(h, *vc.owner(), rot);
                }
            }
            const OutputUnit &ou = rt.output(p);
            h.i64(rt.switchRrPointer(p));
            if (!ou.toNic()) {
                for (VcId v = 0; v < vcs; ++v) {
                    h.b(ou.isIdle(v));
                    h.i64(ou.credits(v));
                    h.i64(rel(ou.activeSince(v), now));
                }
            }
        }
        if (const SpinUnit *su = rt.spinUnit()) {
            const FsmSnapshot s = su->snapshot(now);
            h.u64(static_cast<std::uint64_t>(s.state));
            h.i64(s.deadlineIn);
            h.i64(s.ptrInport);
            h.i64(s.ptrVc);
            h.b(s.victimActive);
            h.i64(rot.to(s.victimSource));
            h.i64(s.spinIn);
            h.b(s.loopValid);
            h.u64(s.loopPath.size());
            for (const PortId p : s.loopPath)
                h.i64(p);
            h.u64(static_cast<std::uint64_t>(s.loopLatency));
            h.u64(static_cast<std::uint64_t>(s.loopVnet));
            h.u64(s.probeAttempt % kAttemptPeriod);
            h.u64(s.frozen.size());
            for (const auto &f : s.frozen) {
                h.i64(f.inport);
                h.i64(f.vc);
                h.i64(f.outport);
            }
        }
    }

    // Links, ordered by (canonical source, source port).
    for (int c = 0; c < n; ++c) {
        const RouterId r = rot.from(c);
        for (PortId p = 0; p < net.router(r).radix(); ++p) {
            const int li = net.linkIndexOf(r, p);
            if (li < 0)
                continue;
            const Link &l = net.link(li);
            h.b(l.failed());
            h.i64(rel(l.flitBusyUntil(), now));
            h.b(l.smBusyAt() == now);
            l.forEachFlit([&](Cycle arrival, const LinkFlit &lf) {
                h.i64(rel(arrival, now));
                h.i64(lf.vc);
                h.i64(lf.flit.seq);
                if (lf.flit.pkt)
                    hashPacket(h, *lf.flit.pkt, rot);
            });
            l.forEachCredit([&](Cycle arrival, const CreditMsg &cm) {
                h.i64(rel(arrival, now));
                h.i64(cm.vc);
                h.b(cm.isFree);
            });
        }
    }

    // NICs, in canonical node order (node id == router id on the
    // scenario topologies; asserted for non-identity renamings).
    for (int c = 0; c < net.numNodes(); ++c) {
        const NodeId nid =
            net.numNodes() == n ? rot.from(c) : static_cast<NodeId>(c);
        Nic &nic = net.nic(nid);
        h.u64(nic.queueLength());
        h.u64(nic.streamRemaining());
        h.i64(nic.streamVc());
        nic.forEachQueued(
            [&](const Packet &p) { hashPacket(h, p, rot); });
        nic.forEachInjFlit([&](Cycle arrival, const LinkFlit &lf) {
            h.i64(rel(arrival, now));
            h.i64(lf.vc);
            h.i64(lf.flit.seq);
            if (lf.flit.pkt)
                hashPacket(h, *lf.flit.pkt, rot);
        });
        nic.forEachEjectFlit([&](Cycle arrival, const Flit &f) {
            h.i64(rel(arrival, now));
            h.i64(f.seq);
        });
        nic.forEachCredit([&](Cycle arrival, const CreditMsg &cm) {
            h.i64(rel(arrival, now));
            h.i64(cm.vc);
            h.b(cm.isFree);
        });
        const OutputUnit &tr = nic.tracker();
        for (VcId v = 0; v < tr.numVcs(); ++v) {
            h.b(tr.isIdle(v));
            h.i64(tr.credits(v));
        }
    }

    // SM substrate (already relative-time from snapshotSms).
    if (mgr) {
        SmSubstrate sub = mgr->snapshotSms(now);
        std::sort(sub.inFlight.begin(), sub.inFlight.end(),
                  [&](const SmSubstrate::InFlight &a,
                      const SmSubstrate::InFlight &b) {
                      const LinkSpec &sa = net.link(a.link).spec();
                      const LinkSpec &sb = net.link(b.link).spec();
                      if (sa.src != sb.src)
                          return rot.to(sa.src) < rot.to(sb.src);
                      if (sa.srcPort != sb.srcPort)
                          return sa.srcPort < sb.srcPort;
                      return a.arriveIn < b.arriveIn;
                  });
        h.u64(sub.inFlight.size());
        for (const auto &f : sub.inFlight) {
            const LinkSpec &spec = net.link(f.link).spec();
            h.i64(rot.to(spec.src));
            h.i64(spec.srcPort);
            h.i64(f.arriveIn);
            hashSm(h, f.sm, now, rot);
        }
        std::sort(sub.pending.begin(), sub.pending.end(),
                  [&](const SmSubstrate::Pending &a,
                      const SmSubstrate::Pending &b) {
                      if (a.dueIn != b.dueIn)
                          return a.dueIn < b.dueIn;
                      if (a.send.from != b.send.from)
                          return rot.to(a.send.from) < rot.to(b.send.from);
                      if (a.send.outport != b.send.outport)
                          return a.send.outport < b.send.outport;
                      return a.send.sm.type < b.send.sm.type;
                  });
        h.u64(sub.pending.size());
        for (const auto &p : sub.pending) {
            h.i64(p.dueIn);
            h.i64(rot.to(p.send.from));
            h.i64(p.send.outport);
            hashSm(h, p.send.sm, now, rot);
        }
    }

    // Fault state beyond the per-component flags hashed above.
    if (fi) {
        for (int c = 0; c < n; ++c)
            h.b(fi->routerDead(rot.from(c)));
    }
    h.u64(net.packetsInFlight());
    return h.value();
}

std::uint64_t
canonicalDigest(Network &net, bool ring_symmetry)
{
    if (!ring_symmetry)
        return digestNetwork(net);
    const int n = net.numRouters();
    SPIN_ASSERT(net.numNodes() == n,
                "ring symmetry requires one NIC per router");
    std::uint64_t best = ~0ull;
    for (int k = 0; k < n; ++k)
        best = std::min(best, digestNetwork(net, k));
    return best;
}

} // namespace spin::verify
