/**
 * @file
 * Fixed-latency pipelined delay line.
 *
 * Models a wire/pipeline: an item pushed at cycle t with latency L becomes
 * visible to the consumer at cycle t + L. One item may enter per cycle
 * (links are one-flit wide) but the line itself never back-pressures;
 * admission control happens at the producer.
 */

#ifndef SPINNOC_SIM_DELAYLINE_HH
#define SPINNOC_SIM_DELAYLINE_HH

#include <deque>
#include <utility>

#include "common/Logging.hh"
#include "common/Types.hh"

namespace spin
{

/**
 * Delay line of items of type T ordered by arrival cycle.
 * Items pushed earlier always arrive no later than items pushed later
 * (latency is constant per line), so a deque stays sorted.
 */
template <typename T>
class DelayLine
{
  public:
    /**
     * Schedule @p item to arrive at @p arrival. Arrivals are normally
     * pushed in order; a SPIN rotation streams a whole packet's worth
     * of staggered credits at once, so out-of-order pushes insert-sort
     * from the back (stable: equal arrivals keep push order).
     */
    void
    push(Cycle arrival, T item)
    {
        // In-order pushes append. (Not just a shortcut: deque::emplace
        // at end() of an *empty* deque resolves to emplace_front, whose
        // start cursor sits on a chunk boundary here -- that path
        // allocates and frees a whole chunk on every push/drain pair.)
        if (line_.empty() || line_.back().first <= arrival) {
            line_.emplace_back(arrival, std::move(item));
            return;
        }
        auto it = line_.end();
        while (it != line_.begin() && std::prev(it)->first > arrival)
            --it;
        line_.emplace(it, arrival, std::move(item));
    }

    /**
     * Pop every item whose arrival cycle is <= @p now, in arrival
     * order, handing each to @p fn. No container is built: the common
     * per-cycle case is "nothing arrived". @p fn gets a mutable
     * reference and may move from it; the item is popped right after
     * the call.
     */
    template <typename F>
    void
    drainInto(Cycle now, F &&fn)
    {
        while (!line_.empty() && line_.front().first <= now) {
            fn(line_.front().second);
            line_.pop_front();
        }
    }

    bool empty() const { return line_.empty(); }
    std::size_t size() const { return line_.size(); }

    /** Drop every pending item (state restore). */
    void clear() { line_.clear(); }

    /** Inspect pending items without disturbing them (audits). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const auto &[arrival, item] : line_)
            fn(arrival, item);
    }

  private:
    std::deque<std::pair<Cycle, T>> line_;
};

} // namespace spin

#endif // SPINNOC_SIM_DELAYLINE_HH
