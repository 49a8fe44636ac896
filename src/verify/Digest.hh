/**
 * @file
 * Behavioral state digest for the spin_model explicit-state checker.
 *
 * A digest is a 64-bit word-at-a-time hash (Hasher) over everything
 * that determines the network's future behavior: VC buffers and their
 * routing requests, credit counters, allocation/round-robin pointers,
 * flits and credits on the wires, NIC queues, the SPIN units' FSM
 * snapshots, the SM substrate, the rotating-priority phase and the
 * fault state. All cycle-valued fields are hashed *relative to the
 * current cycle*, so two states reached at different times that behave
 * identically from here on hash equal -- the property visited-state
 * dedup relies on.
 *
 * On vertex-transitive configurations (the ring scenarios) the digest
 * can additionally be canonicalized under the topology's rotation
 * group: the canonical digest is the minimum over all rotations of the
 * digest of the renamed network. Packet identities are normalized to
 * (src, dest, vnet, size) for this to be sound. A renaming is applied
 * on the fly -- routers, their out-links (Network::linkIndexOf) and
 * their NICs are visited in canonical order -- so a digest copies,
 * allocates and sorts nothing but the SM substrate snapshot.
 */

#ifndef SPINNOC_VERIFY_DIGEST_HH
#define SPINNOC_VERIFY_DIGEST_HH

#include <cstdint>

#include "common/Types.hh"

namespace spin
{

class Network;

namespace verify
{

/**
 * Streaming 64-bit hash, one word per step: the word is xored into the
 * state and the state goes through splitmix64's finalizer (two
 * multiply-xorshift rounds), which spreads every input bit across the
 * full width. For a fixed word the step is a bijection of the state,
 * so two equal-length streams differing in a single word never
 * collide.
 */
class Hasher
{
  public:
    void
    u64(std::uint64_t v)
    {
        std::uint64_t z = h_ ^ v;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h_ = z ^ (z >> 31);
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u64(v ? 1 : 0); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x9e3779b97f4a7c15ull;
};

/**
 * Digest @p net with every router r renamed to (r + @p rotation) mod n
 * (0 = identity). A nonzero rotation requires one NIC per router with
 * node ids equal to router ids (true for every shipped scenario
 * topology).
 */
std::uint64_t digestNetwork(Network &net, int rotation = 0);

/**
 * Canonical digest: the minimum of digestNetwork() over the ring's n
 * rotations when @p ring_symmetry is set (sound only when topology,
 * routing and workload are rotation-equivariant -- the scenario says
 * so), else the identity digest.
 */
std::uint64_t canonicalDigest(Network &net, bool ring_symmetry);

} // namespace verify
} // namespace spin

#endif // SPINNOC_VERIFY_DIGEST_HH
