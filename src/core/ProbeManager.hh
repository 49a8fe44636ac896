/**
 * @file
 * Probe manager (paper Table II): scans the VCs at a probe's input port
 * for the set of unique output ports their packets are waiting on and
 * forks the probe out of all of them, or drops it when the port cannot
 * be part of a deadlock (a free VC, or everyone waiting for ejection).
 */

#ifndef SPINNOC_CORE_PROBEMANAGER_HH
#define SPINNOC_CORE_PROBEMANAGER_HH

#include <vector>

#include "common/Types.hh"
#include "core/SpecialMsg.hh"

namespace spin
{

class SpinUnit;

/** See file comment. */
class ProbeManager
{
  public:
    explicit ProbeManager(SpinUnit &unit) : unit_(unit) {}

    /**
     * Process an arriving probe. Appends forked forwards to @p sends;
     * accepts the probe (loop confirmed) when it is the unit's own probe
     * returning on the pointed VC's in-port. Consumes @p sm: the last
     * fork takes over its path, the others copy it.
     */
    void process(SpecialMsg &&sm, PortId inport,
                 std::vector<SmSend> &sends);

  private:
    SpinUnit &unit_;
};

} // namespace spin

#endif // SPINNOC_CORE_PROBEMANAGER_HH
