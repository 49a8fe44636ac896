/**
 * @file
 * Unit tests: router building blocks in isolation -- VirtualChannel
 * buffer/state invariants, OutputUnit allocation and credit flow,
 * InputUnit activity scans -- and the router's parking of blocked
 * heads and its quiet routing / switch phases on a small mesh.
 */

#include <gtest/gtest.h>

#include "common/Logging.hh"
#include "common/Random.hh"
#include "core/SpinUnit.hh"
#include "fault/FaultSchedule.hh"
#include "network/Network.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "router/InputUnit.hh"
#include "router/OutputUnit.hh"
#include "router/Router.hh"
#include "router/VirtualChannel.hh"
#include "routing/RoutingAlgorithm.hh"
#include "topology/Mesh.hh"

namespace spin
{
namespace
{

PacketPtr
mkPkt(int size, PacketId id = 1)
{
    auto p = std::make_shared<Packet>();
    p->id = id;
    p->sizeFlits = size;
    return p;
}

TEST(VirtualChannelTest, ActivationLifecycle)
{
    VirtualChannel vc;
    EXPECT_FALSE(vc.active());
    auto pkt = mkPkt(2);
    const auto flits = makeFlits(pkt);
    vc.pushFlit(flits[0], 10);
    EXPECT_TRUE(vc.active());
    EXPECT_EQ(vc.activeSince(), 10u);
    EXPECT_EQ(vc.owner(), pkt);
    vc.pushFlit(flits[1], 11);
    EXPECT_TRUE(vc.packetComplete());
    EXPECT_EQ(vc.popFlit().type, FlitType::Head);
    EXPECT_TRUE(vc.active()); // tail still inside
    EXPECT_EQ(vc.popFlit().type, FlitType::Tail);
    EXPECT_FALSE(vc.active()); // tail pop releases
    EXPECT_EQ(vc.owner(), nullptr);
}

TEST(VirtualChannelTest, TailPopClearsRoutingState)
{
    VirtualChannel vc;
    auto pkt = mkPkt(1);
    vc.pushFlit(makeFlits(pkt)[0], 0);
    vc.routeValid = true;
    vc.request = 2;
    vc.grantedVc = 1;
    vc.frozen = true;
    vc.frozenOutport = 2;
    vc.parkedGen = 7;
    vc.popFlit();
    EXPECT_FALSE(vc.routeValid);
    EXPECT_EQ(vc.request, kInvalidId);
    EXPECT_EQ(vc.grantedVc, kInvalidId);
    EXPECT_FALSE(vc.frozen);
    EXPECT_EQ(vc.parkedGen, 0u); // the next packet starts unparked
}

TEST(VirtualChannelTest, CutThroughAllowsEmptyActive)
{
    VirtualChannel vc;
    auto pkt = mkPkt(3);
    const auto flits = makeFlits(pkt);
    vc.pushFlit(flits[0], 0);
    vc.popFlit(); // head forwarded before body arrives
    EXPECT_TRUE(vc.active());
    EXPECT_TRUE(vc.empty());
    EXPECT_FALSE(vc.packetComplete());
    vc.pushFlit(flits[1], 2); // body arrives later: same owner, legal
    vc.pushFlit(flits[2], 3);
    vc.popFlit();
    vc.popFlit();
    EXPECT_FALSE(vc.active());
}

TEST(VirtualChannelTest, RejectsInterleavedPackets)
{
    VirtualChannel vc;
    auto p1 = mkPkt(2, 1);
    auto p2 = mkPkt(1, 2);
    vc.pushFlit(makeFlits(p1)[0], 0);
    EXPECT_DEATH(vc.pushFlit(makeFlits(p2)[0], 1), "VCT violation");
}

TEST(VirtualChannelTest, RejectsBodyIntoIdleVc)
{
    VirtualChannel vc;
    auto pkt = mkPkt(3);
    EXPECT_DEATH(vc.pushFlit(makeFlits(pkt)[1], 0), "must be a head");
}

TEST(VirtualChannelTest, ProgressTimestamps)
{
    VirtualChannel vc;
    auto pkt = mkPkt(2);
    const auto flits = makeFlits(pkt);
    vc.pushFlit(flits[0], 5);
    EXPECT_EQ(vc.lastProgress(), 5u);
    vc.noteProgress(9);
    EXPECT_EQ(vc.lastProgress(), 9u);
}

TEST(OutputUnitTest, AllocateOnlyIdle)
{
    OutputUnit ou(0, false, 3, 5);
    const std::vector<VcId> all{0, 1, 2};
    EXPECT_EQ(ou.allocate(all, 11, 0), 0);
    EXPECT_EQ(ou.allocate(all, 12, 0), 1);
    EXPECT_EQ(ou.allocate(all, 13, 0), 2);
    EXPECT_EQ(ou.allocate(all, 14, 0), kInvalidId);
    EXPECT_EQ(ou.ownerOf(1), 12u);
}

TEST(OutputUnitTest, CreditRoundTripFreesVc)
{
    OutputUnit ou(0, false, 1, 2);
    EXPECT_EQ(ou.allocate({0}, 7, 0), 0);
    ou.consumeCredit(0);
    ou.consumeCredit(0);
    EXPECT_EQ(ou.credits(0), 0);
    ou.onCredit(0, false, 5);
    EXPECT_FALSE(ou.isIdle(0));
    ou.onCredit(0, true, 6); // tail credit: free again
    EXPECT_TRUE(ou.isIdle(0));
    EXPECT_EQ(ou.credits(0), 2);
    EXPECT_EQ(ou.ownerOf(0), 0u);
}

TEST(OutputUnitTest, NicPortsAreBottomless)
{
    OutputUnit ou(4, true, 3, 5);
    EXPECT_TRUE(ou.isIdle(0));
    EXPECT_GT(ou.credits(2), 1000000);
    EXPECT_TRUE(ou.hasIdleVcIn(0, 2));
    ou.consumeCredit(0); // no-op
    EXPECT_GT(ou.credits(0), 1000000);
    EXPECT_EQ(ou.occupancy(), 0);
}

TEST(OutputUnitTest, OccupancyCountsBufferedFlits)
{
    OutputUnit ou(0, false, 2, 5);
    EXPECT_EQ(ou.occupancy(), 0);
    ou.allocate({0}, 1, 0);
    ou.consumeCredit(0);
    ou.consumeCredit(0);
    ou.allocate({1}, 2, 0);
    ou.consumeCredit(1);
    EXPECT_EQ(ou.occupancy(), 3);
    ou.onCredit(0, false, 1);
    EXPECT_EQ(ou.occupancy(), 2);
}

TEST(OutputUnitTest, MinActiveTimeSemantics)
{
    OutputUnit ou(0, false, 2, 5);
    EXPECT_EQ(ou.minActiveTime(0, 1, 100), 0u); // idle VC exists
    ou.allocate({0}, 1, 40);
    EXPECT_EQ(ou.minActiveTime(0, 0, 100), 60u);
    EXPECT_EQ(ou.minActiveTime(0, 1, 100), 0u); // vc1 still idle
    ou.allocate({1}, 2, 90);
    EXPECT_EQ(ou.minActiveTime(0, 1, 100), 10u); // min of 60 and 10
}

TEST(OutputUnitTest, ForceAllocateSeizesBusyVc)
{
    OutputUnit ou(0, false, 1, 5);
    ou.allocate({0}, 1, 0);
    ou.forceAllocate(0, 42, 7);
    EXPECT_EQ(ou.ownerOf(0), 42u);
    EXPECT_FALSE(ou.isIdle(0));
    EXPECT_EQ(ou.activeSince(0), 7u);
}

TEST(InputUnitTest, ActivityScans)
{
    InputUnit iu(1, false, 4);
    EXPECT_FALSE(iu.allVcsActive());
    auto pkt = mkPkt(1);
    for (VcId v = 0; v < 4; ++v)
        iu.vc(v).pushFlit(makeFlits(mkPkt(1, v + 1))[0], 0);
    EXPECT_TRUE(iu.allVcsActive());
    iu.vc(2).popFlit();
    EXPECT_FALSE(iu.allVcsActive());
    EXPECT_TRUE(iu.allVcsActive(0, 1));  // vnet 0 range still active
    EXPECT_FALSE(iu.allVcsActive(2, 3)); // vnet 1 range has a free VC
}

TEST(InputUnitTest, FromNicFlag)
{
    InputUnit local(4, true, 2);
    InputUnit transit(0, false, 2);
    EXPECT_TRUE(local.fromNic());
    EXPECT_FALSE(transit.fromNic());
}

// ---------------------------------------------------------------------
// Parked heads (Router::computeRoutes)
// ---------------------------------------------------------------------

// The head under test sits at router 5 = (1,1) of a 4x4 mesh and heads
// for router 10 = (2,2): two minimal candidates, East and North.
constexpr RouterId kAt = 5;
constexpr RouterId kTo = 10;

/** 4x4 mesh, one VC, FAvORS minimal routing, no deadlock scheme
 *  unless @p scheme says otherwise. */
std::unique_ptr<Network>
oneVcMesh(DeadlockScheme scheme = DeadlockScheme::None)
{
    NetworkConfig cfg;
    cfg.vnets = 1;
    cfg.vcsPerVnet = 1;
    cfg.vcDepth = 5;
    cfg.maxPacketSize = 5;
    cfg.scheme = scheme;
    return buildNetwork(std::make_shared<Topology>(makeMesh(4, 4)), cfg,
                        RoutingKind::FavorsMin);
}

/** The candidate of kAt -> kTo that is not East. */
PortId
northish(const Network &net)
{
    const auto &c = net.topo().minimalPorts(kAt, kTo);
    return c[0] == MeshInfo::kEast ? c[1] : c[0];
}

/** Seize downstream VC 0 behind @p port of router kAt for a packet
 *  that is not in the network, as if its head left this cycle. */
void
occupy(Network &net, PortId port)
{
    OutputUnit &out = net.router(kAt).output(port);
    ASSERT_EQ(out.allocate({0}, 900 + port, net.now()), 0);
    out.consumeCredit(0);
}

PortId
localPort(const Network &net)
{
    return net.topo().portOfNode(net.topo().nodesAt(kAt).front());
}

/** Offer a @p size-flit packet kAt -> kTo and step until its head has
 *  been routed in router kAt's local input VC. @return that VC. */
VirtualChannel &
injectHead(Network &net, int size = 5)
{
    const Topology &topo = net.topo();
    net.offerPacket(net.makePacket(topo.nodesAt(kAt).front(),
                                   topo.nodesAt(kTo).front(), 0, size));
    VirtualChannel &vc = net.router(kAt).input(localPort(net)).vc(0);
    for (int i = 0; i < 20 && !vc.routeValid; ++i)
        net.step();
    return vc;
}

TEST(ParkedHeadTest, BlockedHeadKeepsRequestAndDrawsNothing)
{
    auto net = oneVcMesh();
    ASSERT_EQ(net->topo().minimalPorts(kAt, kTo).size(), 2u);
    for (const PortId p : net->topo().minimalPorts(kAt, kTo))
        occupy(*net, p);
    net->step();
    VirtualChannel &vc = injectHead(*net);
    ASSERT_TRUE(vc.routeValid);
    Router &rt = net->router(kAt);
    EXPECT_TRUE(rt.parked(localPort(*net), 0));

    const PortId req = vc.request;
    const Random before = rt.rng();
    for (int i = 0; i < 50; ++i) {
        net->step();
        ASSERT_EQ(vc.request, req);
        ASSERT_EQ(vc.grantedVc, kInvalidId);
    }
    EXPECT_TRUE(rt.parked(localPort(*net), 0));
    Random a = before;
    Random b = rt.rng();
    EXPECT_EQ(a.next(), b.next()); // no draw from the router's stream
}

TEST(ParkedHeadTest, FreeCreditRetargetsAndGrantsInTheNextRoutingPhase)
{
    auto net = oneVcMesh();
    for (const PortId p : net->topo().minimalPorts(kAt, kTo))
        occupy(*net, p);
    net->step();
    VirtualChannel &vc = injectHead(*net);
    Router &rt = net->router(kAt);
    ASSERT_TRUE(rt.parked(localPort(*net), 0));
    for (int i = 0; i < 5; ++i)
        net->step();

    // The downstream VC behind the other candidate drains. Its free
    // credit lands in the wires phase; the routing phase of the same
    // cycle re-targets the head there and grants it, as it would have
    // without parking.
    const auto &c = net->topo().minimalPorts(kAt, kTo);
    const PortId other = c[0] == vc.request ? c[1] : c[0];
    const Cycle now = net->now();
    rt.receiveCredit(other, 0, true);
    EXPECT_FALSE(rt.parked(localPort(*net), 0));
    net->step();
    EXPECT_EQ(vc.request, other);
    EXPECT_EQ(vc.grantedVc, 0);
    EXPECT_EQ(rt.output(other).ownerOf(0), vc.owner()->id);
    EXPECT_EQ(rt.output(other).activeSince(0), now);
}

TEST(ParkedHeadTest, VcActivatedThisCycleCountsAsFreeInSelect)
{
    // select() rates a downstream VC activated in the current cycle at
    // t_active == 0, like an idle one, and draws among such ports. The
    // park rule mirrors exactly this, so it must keep holding.
    auto net = oneVcMesh();
    Router &rt = net->router(kAt);
    const auto &c = net->topo().minimalPorts(kAt, kTo);
    occupy(*net, c[0]);
    net->step();
    occupy(*net, c[1]); // active for fewer cycles than c[0]
    for (int i = 0; i < 3; ++i)
        net->step();
    const std::vector<PortId> cands(c.begin(), c.end());
    const PacketPtr pkt = net->makePacket(net->topo().nodesAt(kAt).front(),
                                          net->topo().nodesAt(kTo).front(),
                                          0, 1);

    // Both busy: the least-active candidate, no draw.
    Random before = rt.rng();
    EXPECT_EQ(net->routing().select(*pkt, rt, cands), c[1]);
    Random now_rng = rt.rng();
    EXPECT_EQ(now_rng.next(), before.next());

    // c[0] force-allocated this very cycle (a SPIN rotation): it is
    // the only t_active == 0 candidate, picked by a draw.
    rt.output(c[0]).forceAllocate(0, 77, net->now());
    before = rt.rng();
    EXPECT_EQ(net->routing().select(*pkt, rt, cands), c[0]);
    now_rng = rt.rng();
    EXPECT_NE(now_rng.next(), before.next());
}

TEST(ParkedHeadTest, FaultEventWakesParkedHeads)
{
    auto net = oneVcMesh();
    std::string perr;
    const obs::JsonValue doc = obs::JsonValue::parse(
        R"({"schema": "spin-faults/v1",
            "events": [{"kind": "link", "cycle": 40, "src": 5,
                        "dst": 6}]})",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    fault::FaultSchedule fs;
    std::string err;
    ASSERT_TRUE(fault::FaultSchedule::fromJson(doc, fs, err)) << err;
    net->attachFaults(fs);

    // East (toward router 6) is the least-active candidate, so the
    // blocked head requests it.
    const PortId north = northish(*net);
    occupy(*net, north);
    net->step();
    occupy(*net, MeshInfo::kEast);
    net->step();
    VirtualChannel &vc = injectHead(*net);
    Router &rt = net->router(kAt);
    ASSERT_EQ(vc.request, MeshInfo::kEast);
    ASSERT_TRUE(rt.parked(localPort(*net), 0));
    while (net->now() < 40) {
        net->step();
        ASSERT_EQ(vc.request, MeshInfo::kEast);
    }

    // The East link dies at the start of cycle 40. Nothing at the
    // router's output VCs changed, yet the head must re-route off the
    // dead port in that cycle's routing phase.
    net->step();
    EXPECT_EQ(vc.request, north);
    EXPECT_EQ(vc.grantedVc, kInvalidId);
}

// ---------------------------------------------------------------------
// Quiet routers (Router::computeRoutes / Router::allocateSwitch)
// ---------------------------------------------------------------------

/** Inject a 5-flit packet kAt -> kTo, granted in its arrival cycle,
 *  then take every credit of its downstream VC, as if they were still
 *  in flight: the head cannot send. @return its VC. */
VirtualChannel &
starvedHead(Network &net)
{
    VirtualChannel &vc = injectHead(net);
    EXPECT_NE(vc.grantedVc, kInvalidId);
    for (int i = 0; i < net.config().vcDepth; ++i)
        net.router(kAt).output(vc.request).consumeCredit(vc.grantedVc);
    return vc;
}

TEST(QuiescenceTest, SwitchQuietRouterSendsInTheCycleACreditArrives)
{
    auto net = oneVcMesh();
    VirtualChannel &vc = starvedHead(*net);
    Router &rt = net->router(kAt);
    for (int i = 0; i < 8; ++i)
        net->step(); // the whole packet streams in behind the head
    ASSERT_EQ(vc.size(), 5);
    EXPECT_TRUE(rt.routingQuiet());
    EXPECT_TRUE(rt.switchQuiet());

    // One credit comes back over the wire. It lands in the wires phase
    // and the switch phase of the same cycle sends the head.
    Link *l = net->outLinkOf(kAt, vc.request);
    ASSERT_NE(l, nullptr);
    l->pushCredit(net->now(), CreditMsg{vc.grantedVc, false});
    net->step();
    EXPECT_EQ(vc.size(), 4);
    EXPECT_FALSE(vc.front().isHead());
}

TEST(QuiescenceTest, UnfreezeWakesBothPhases)
{
    auto net = oneVcMesh(DeadlockScheme::Spin);
    VirtualChannel &vc = starvedHead(*net);
    Router &rt = net->router(kAt);
    for (int i = 0; i < 8; ++i)
        net->step();
    ASSERT_EQ(vc.size(), 5);

    // Freeze the packet (as a move would), then hand back every
    // credit: the switch phase wakes, finds the VC frozen, and goes
    // quiet again without sending.
    const PortId inport = localPort(*net);
    const PortId out = vc.request;
    rt.spinUnit()->freeze(inport, 0, out, kAt, net->now() + 1000);
    for (int i = 0; i < net->config().vcDepth; ++i)
        rt.receiveCredit(out, vc.grantedVc, false);
    EXPECT_FALSE(rt.switchQuiet());
    net->step();
    EXPECT_TRUE(rt.switchQuiet());
    EXPECT_EQ(vc.size(), 5);

    // The release wakes both phases; the head leaves in the next cycle.
    ASSERT_TRUE(rt.spinUnit()->unfreeze(inport, out));
    EXPECT_FALSE(rt.routingQuiet());
    EXPECT_FALSE(rt.switchQuiet());
    net->step();
    EXPECT_EQ(vc.size(), 4);
}

TEST(QuiescenceTest, FrontFlitArrivedThisCycleKeepsSwitchAwake)
{
    // A one-flit packet arrives, is routed and granted in its arrival
    // cycle, and may not leave before the next. No event reaches the
    // router in that next cycle, so only "arrived this cycle" keeps the
    // switch phase from going quiet with the flit stranded.
    auto net = oneVcMesh();
    Router &rt = net->router(kAt);
    VirtualChannel &vc = injectHead(*net, 1);
    ASSERT_NE(vc.grantedVc, kInvalidId);
    ASSERT_EQ(vc.front().arrivedAt + 1, net->now());
    EXPECT_FALSE(rt.switchQuiet());
    net->step();
    EXPECT_TRUE(vc.empty());
    EXPECT_EQ(rt.bufferedFlits(), 0);
}

} // namespace
} // namespace spin
