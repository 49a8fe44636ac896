/**
 * @file
 * Network-level SPIN coordinator.
 *
 * The recovery itself is fully distributed -- every decision is taken in
 * a per-router SpinUnit from locally visible state. This manager models
 * the shared physical substrate those units communicate over: bufferless
 * SM traversal on the regular links with strict-priority contention
 * drops, and the synchronized rotation that all frozen routers execute
 * in the committed spin cycle. It also implements the defensive
 * atomic-rotation fixpoint described in DESIGN.md Sec. 1.3.
 */

#ifndef SPINNOC_CORE_SPINMANAGER_HH
#define SPINNOC_CORE_SPINMANAGER_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/Types.hh"
#include "core/RotatingPriority.hh"
#include "core/SpecialMsg.hh"
#include "core/SpinUnit.hh"
#include "sim/DelayLine.hh"

namespace spin
{

class Network;

/**
 * Model-checker verdict for one SM about to contend for its link. The
 * checker's interceptor (see setSmHook) perturbs SM schedules through
 * these: Delay re-queues the send for the next cycle (models wire/
 * arbitration jitter), Drop loses it outright (models contention or
 * fault loss on paths the built-in contention rule would not pick).
 */
enum class SmAction : std::uint8_t
{
    Deliver,
    Delay,
    Drop,
};

/**
 * Portable image of the SM substrate (in-flight SMs + scheduled
 * emissions), arrival/send cycles stored relative to the capture cycle
 * so images from different runs of the same behavior compare equal.
 */
struct SmSubstrate
{
    struct InFlight
    {
        int link = -1;
        std::int64_t arriveIn = 0;
        SpecialMsg sm;
    };
    struct Pending
    {
        std::int64_t dueIn = 0;
        SmSend send;
    };
    std::vector<InFlight> inFlight;
    std::vector<Pending> pending;
};

/**
 * Link-contention sort key of one SmSend: the fields the contention
 * order compares, with the sender's dynamic priority evaluated once,
 * plus the send's index in its list.
 */
struct SmSendKey
{
    RouterId from = kInvalidId;
    PortId outport = kInvalidId;
    int cls = 0;  //!< classPriority() of the SM type
    int prio = 0; //!< sender's dynamic priority this cycle
    RouterId sender = kInvalidId;
    std::uint32_t index = 0;
};

/**
 * Order @p keys for link contention: by link (from, outport), then SM
 * class and sender priority, highest first, then sender id; the first
 * key of each link's run is its winner. Uses std::sort, whose
 * permutation depends only on comparison outcomes, so the keys land in
 * the order std::sort gives the sends they index -- also among sends
 * that tie on every compared field (DESIGN.md Sec. 1.3).
 */
void sortContention(std::vector<SmSendKey> &keys);

/** See file comment. */
class SpinManager
{
  public:
    explicit SpinManager(Network &net);

    Network &network() { return net_; }
    SpinUnit &unit(RouterId r) { return *units_[r]; }
    const SpinUnit &unit(RouterId r) const { return *units_[r]; }

    /// @name Per-cycle phases (called by Network::step)
    /// @{
    /** Deliver SM arrivals, process them, resolve link contention. */
    void smPhase(Cycle now);
    /** Execute committed rotations whose spin cycle is @p now. */
    void spinPhase(Cycle now);
    /** Run every unit's counter FSM. */
    void fsmTick(Cycle now);
    /// @}

    /** Schedule @p send to contend for its link at cycle @p when. */
    void scheduleSend(Cycle when, SmSend send);

    /** Special messages currently traversing links (metrics gauge). */
    int smsInFlight() const { return smsInFlight_; }

    /// @name Model-checker hooks
    /// @{
    /**
     * Interceptor consulted for every SM just before link contention;
     * its verdict (see SmAction) lets the model checker explore launch
     * orderings the deterministic simulator would never produce. Null
     * (the default) means every SM is delivered normally.
     */
    using SmHook = std::function<SmAction(const SmSend &, Cycle)>;
    void setSmHook(SmHook hook) { smHook_ = std::move(hook); }

    /** Deliberate protocol defect under test (spin_model --mutate). */
    void setMutation(ProtocolMutation m) { mutation_ = m; }
    ProtocolMutation mutation() const { return mutation_; }

    /** Capture / re-apply the SM substrate (times relative to @p now). */
    SmSubstrate snapshotSms(Cycle now) const;
    void restoreSms(const SmSubstrate &s, Cycle now);
    /** True when no SM is in flight or scheduled anywhere. */
    bool smQuiescent() const
    {
        return smsInFlight_ == 0 && scheduled_.empty();
    }
    /// @}

    /// @name Parameters
    /// @{
    Cycle tDd() const { return tDd_; }
    int maxProbeHops() const { return maxProbeHops_; }
    int priorityOf(RouterId r, Cycle now) const
    {
        return prio_.priorityOf(r, now);
    }
    const RotatingPriority &rotation() const { return prio_; }
    /// @}

  private:
    Network &net_;
    RotatingPriority prio_;
    Cycle tDd_;
    int maxProbeHops_;

    /** Units are owned by their routers; borrowed here for iteration. */
    std::vector<SpinUnit *> units_;
    /** Per-link SM pipelines, indexed like Network's link array. */
    std::vector<DelayLine<SpecialMsg>> smLines_;
    /** SMs currently inside smLines_; lets smPhase() skip the
     *  per-link scan in the (overwhelmingly common) no-SM cycles. */
    int smsInFlight_ = 0;
    /** FSM-scheduled future emissions. */
    std::vector<std::pair<Cycle, SmSend>> scheduled_;
    SmHook smHook_;
    ProtocolMutation mutation_ = ProtocolMutation::None;

    /** One SM delivered to a router this cycle. */
    struct Arrival
    {
        PortId inport = kInvalidId;
        int cls = 0;  //!< classPriority() of the SM type
        int prio = 0; //!< sender's dynamic priority this cycle
        SpecialMsg sm;
    };
    /// @name Per-cycle buffers of smPhase(), cleared, never shrunk
    /// @{
    /** Arrivals per destination router, in link-index order. */
    std::vector<std::vector<Arrival>> inbox_;
    /** Routers with a non-empty inbox this cycle. */
    std::vector<RouterId> inboxRouters_;
    /** SMs contending for links this cycle. */
    std::vector<SmSend> sends_;
    /** Contention keys of sends_ (launch()). */
    std::vector<SmSendKey> keys_;
    /// @}

    /** Resolve one cycle's link contention and launch the winners. */
    void launch(std::vector<SmSend> &sends, Cycle now);
};

} // namespace spin

#endif // SPINNOC_CORE_SPINMANAGER_HH
