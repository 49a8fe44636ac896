#include "core/ProbeManager.hh"

#include <algorithm>

#include "common/Logging.hh"
#include "core/SpinManager.hh"
#include "core/SpinUnit.hh"
#include "network/Network.hh"
#include "obs/Tracer.hh"
#include "router/Router.hh"

namespace spin
{

void
ProbeManager::process(SpecialMsg &&sm, PortId inport,
                      std::vector<SmSend> &sends)
{
    Router &rt = unit_.router();
    Network &net = rt.network();
    Stats &st = net.stats();
    const RouterId self = rt.id();

    const auto drop = [&](const char *reason) {
        if (obs::Tracer *t = net.trace())
            t->spin(net.now(), "probe_drop", self, reason, sm.sender,
                    static_cast<std::int64_t>(sm.path.size()));
    };

    if (sm.sender == self) {
        if (unit_.initState() != InitState::DetectDeadlock ||
            unit_.victim().active) {
            // A second loop through us while a recovery is already in
            // flight: drop; the timeout machinery covers the rest
            // (paper Sec. IV-C2, last question).
            ++st.probesDropped;
            ++st.probeDropStale;
            drop("stale");
            return;
        }
        if (inport == unit_.pointerInport()) {
            // Our probe returned on the in-port of the pointed VC:
            // the dependency chain is confirmed.
            unit_.onProbeReturned(sm, net.now());
            return;
        }
        // Figure-"8" Case II: our probe came back on a different port;
        // treat it as a transit probe and keep tracing.
    }

    // Transit. Rotating-priority filter (paper Sec. IV-C1): a router
    // whose dynamic priority exceeds the sender's drops the probe, so
    // among concurrent initiators on one loop exactly the
    // highest-priority one completes -- this is what serializes the
    // otherwise symmetric recovery race.
    SpinManager &mgr = unit_.manager();
    const Cycle now = net.now();
    if (mgr.priorityOf(self, now) > mgr.priorityOf(sm.sender, now)) {
        ++st.probesDropped;
        ++st.probeDropPriority;
        drop("priority");
        return;
    }
    // Drop when the recorded path no longer fits the loop buffer.
    if (static_cast<int>(sm.path.size()) >= mgr.maxProbeHops()) {
        ++st.probesDropped;
        ++st.probeDropHops;
        drop("hops");
        return;
    }
    // Dependencies never cross message classes: the chain lives within
    // the probed packet's vnet, so only that vnet's VCs matter here (an
    // idle VC of another vnet says nothing about this chain).
    const VcId lo = sm.vnet * net.config().vcsPerVnet;
    const VcId hi = lo + net.config().vcsPerVnet - 1;
    const InputUnit &iu = rt.input(inport);
    if (iu.fromNic() || !iu.allVcsActive(lo, hi)) {
        ++st.probesDropped;
        ++st.probeDropInactive;
        drop("inactive");
        return;
    }

    // Unique requested output ports of the blocked packets, excluding
    // ejection (packets waiting for the NIC cannot be in a cycle).
    PortId ports[8];
    int n_ports = 0;
    std::vector<PortId> overflow; // radix > 8 (e.g. dragonfly)
    for (VcId v = lo; v <= hi; ++v) {
        const PortId req = rt.depRequest(inport, v);
        if (req == kInvalidId || rt.isNicPort(req))
            continue;
        bool seen = false;
        for (int i = 0; i < n_ports && !seen; ++i)
            seen = ports[i] == req;
        for (const PortId p : overflow)
            seen = seen || p == req;
        if (seen)
            continue;
        if (n_ports < 8)
            ports[n_ports++] = req;
        else
            overflow.push_back(req);
    }
    if (n_ports == 0) {
        ++st.probesDropped;
        ++st.probeDropNoDep;
        drop("no_dep");
        return;
    }

    obs::Tracer *tr = net.trace();
    const RouterId sender = sm.sender;
    const int forks = n_ports + static_cast<int>(overflow.size());
    int forked = 0;
    const auto fork = [&](PortId o) {
        // Append the hop in place, then copy the probe (one exact-size
        // path allocation) or, on the last fork, hand it over.
        sm.path.push_back(o);
        if (++forked == forks) {
            sends.push_back(SmSend{std::move(sm), self, o});
        } else {
            sends.push_back(SmSend{sm, self, o});
            sm.path.pop_back();
        }
        if (tr)
            tr->spin(net.now(), "probe_fwd", self, nullptr, sender, o);
    };
    for (int i = 0; i < n_ports; ++i)
        fork(ports[i]);
    for (const PortId p : overflow)
        fork(p);
    if (forks > 1)
        st.probesForked += forks - 1;
}

} // namespace spin
