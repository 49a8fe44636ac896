/**
 * @file
 * Unit tests: common module (types, RNG, packets, config, delay line).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/Config.hh"
#include "common/Logging.hh"
#include "common/Packet.hh"
#include "common/Random.hh"
#include "sim/Clock.hh"
#include "sim/DelayLine.hh"

namespace spin
{
namespace
{

TEST(FlitType, HeadTailPredicates)
{
    EXPECT_TRUE(isHeadFlit(FlitType::Head));
    EXPECT_TRUE(isHeadFlit(FlitType::HeadTail));
    EXPECT_FALSE(isHeadFlit(FlitType::Body));
    EXPECT_FALSE(isHeadFlit(FlitType::Tail));
    EXPECT_TRUE(isTailFlit(FlitType::Tail));
    EXPECT_TRUE(isTailFlit(FlitType::HeadTail));
    EXPECT_FALSE(isTailFlit(FlitType::Head));
    EXPECT_FALSE(isTailFlit(FlitType::Body));
}

TEST(Random, Deterministic)
{
    Random a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Random, BelowStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Random, BelowCoversRange)
{
    Random r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, RangeInclusive)
{
    Random r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo |= v == -2;
        hi |= v == 2;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Random, ChanceExtremes)
{
    Random r(1);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Random, UniformInUnitInterval)
{
    Random r(5);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000, 0.5, 0.05);
}

TEST(Packet, MakeFlitsSingle)
{
    auto pkt = std::make_shared<Packet>();
    pkt->sizeFlits = 1;
    const auto flits = makeFlits(pkt);
    ASSERT_EQ(flits.size(), 1u);
    EXPECT_EQ(flits[0].type, FlitType::HeadTail);
    EXPECT_EQ(flits[0].seq, 0);
}

TEST(Packet, MakeFlitsMulti)
{
    auto pkt = std::make_shared<Packet>();
    pkt->sizeFlits = 5;
    const auto flits = makeFlits(pkt);
    ASSERT_EQ(flits.size(), 5u);
    EXPECT_EQ(flits[0].type, FlitType::Head);
    EXPECT_EQ(flits[1].type, FlitType::Body);
    EXPECT_EQ(flits[3].type, FlitType::Body);
    EXPECT_EQ(flits[4].type, FlitType::Tail);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(flits[i].seq, i);
        EXPECT_EQ(flits[i].pkt, pkt);
    }
}

TEST(Packet, LatencyMath)
{
    Packet p;
    p.createCycle = 10;
    p.injectCycle = 15;
    p.ejectCycle = 42;
    EXPECT_EQ(p.latency(), 32u);
    EXPECT_EQ(p.networkLatency(), 27u);
}

TEST(Config, ValidatesVctDepth)
{
    NetworkConfig cfg;
    cfg.vcDepth = 3;
    cfg.maxPacketSize = 5;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidatesStaticBubbleVcs)
{
    NetworkConfig cfg;
    cfg.scheme = DeadlockScheme::StaticBubble;
    cfg.vcsPerVnet = 1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.vcsPerVnet = 2;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, TotalVcs)
{
    NetworkConfig cfg;
    cfg.vnets = 3;
    cfg.vcsPerVnet = 2;
    EXPECT_EQ(cfg.totalVcs(), 6);
}

TEST(Clock, TicksMonotonically)
{
    Clock c;
    EXPECT_EQ(c.now(), 0u);
    c.tick();
    c.tick();
    EXPECT_EQ(c.now(), 2u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

/** Every item of @p dl arriving by @p now, in delivery order. */
std::vector<int>
drained(DelayLine<int> &dl, Cycle now)
{
    std::vector<int> out;
    dl.drainInto(now, [&](int &v) { out.push_back(v); });
    return out;
}

TEST(DelayLine, InOrderDelivery)
{
    DelayLine<int> dl;
    dl.push(5, 1);
    dl.push(5, 2);
    dl.push(7, 3);
    EXPECT_TRUE(drained(dl, 4).empty());
    EXPECT_EQ(dl.size(), 3u); // nothing popped before its arrival
    const auto at5 = drained(dl, 5);
    ASSERT_EQ(at5.size(), 2u);
    EXPECT_EQ(at5[0], 1);
    EXPECT_EQ(at5[1], 2);
    const auto at7 = drained(dl, 10);
    ASSERT_EQ(at7.size(), 1u);
    EXPECT_EQ(at7[0], 3);
    EXPECT_TRUE(dl.empty());
}

TEST(DelayLine, OutOfOrderPushSorts)
{
    DelayLine<int> dl;
    dl.push(9, 1);
    dl.push(4, 2); // earlier arrival pushed later
    dl.push(6, 3);
    const auto all = drained(dl, 20);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], 2);
    EXPECT_EQ(all[1], 3);
    EXPECT_EQ(all[2], 1);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(SPIN_FATAL("boom ", 42), FatalError);
}

} // namespace
} // namespace spin
