/**
 * @file
 * Move manager (paper Table II): processes move, probe_move and
 * kill_move traversals -- freezing and unfreezing the deadlocked VCs
 * along the latched loop path and enforcing the source-id latch that
 * serializes overlapping recoveries.
 */

#ifndef SPINNOC_CORE_MOVEMANAGER_HH
#define SPINNOC_CORE_MOVEMANAGER_HH

#include <vector>

#include "common/Types.hh"
#include "core/SpecialMsg.hh"

namespace spin
{

class SpinUnit;

/** See file comment. */
class MoveManager
{
  public:
    explicit MoveManager(SpinUnit &unit) : unit_(unit) {}

    /** Process an arriving move or probe_move (consumed: the
     *  forward takes it over). */
    void processMove(SpecialMsg &&sm, PortId inport,
                     std::vector<SmSend> &sends);

    /** Process an arriving kill_move (consumed likewise). */
    void processKill(SpecialMsg &&sm, PortId inport,
                     std::vector<SmSend> &sends);

  private:
    SpinUnit &unit_;
};

} // namespace spin

#endif // SPINNOC_CORE_MOVEMANAGER_HH
