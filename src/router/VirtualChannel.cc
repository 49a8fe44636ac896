#include "router/VirtualChannel.hh"

#include <utility>

#include "common/Logging.hh"

namespace spin
{

void
VirtualChannel::grow()
{
    const std::size_t cap = buf_.size();
    std::vector<Flit> nb(cap < 4 ? 8 : cap * 2);
    for (std::size_t i = 0; i < count_; ++i)
        nb[i] = std::move(buf_[(head_ + i) % cap]);
    buf_ = std::move(nb);
    head_ = 0;
}

void
VirtualChannel::pushFlit(Flit f, Cycle now)
{
    if (!active_) {
        SPIN_ASSERT(f.isHead(), "first flit into an idle VC must be a "
                    "head, got ", f.toString());
        SPIN_ASSERT(count_ == 0, "idle VC with buffered flits");
        active_ = true;
        activeSince_ = now;
        lastProgress_ = now;
        owner_ = f.pkt;
    } else {
        SPIN_ASSERT(owner_ == f.pkt,
                    "VC interleaving two packets (VCT violation)");
    }
    if (count_ == buf_.size())
        grow();
    buf_[(head_ + count_) % buf_.size()] = std::move(f);
    ++count_;
}

Flit
VirtualChannel::popFlit()
{
    SPIN_ASSERT(count_ != 0, "pop from empty VC");
    Flit f = std::move(buf_[head_]);
    head_ = (head_ + 1) % buf_.size();
    --count_;
    if (f.isTail()) {
        SPIN_ASSERT(count_ == 0, "flits behind a tail in one VC");
        active_ = false;
        owner_.reset();
        routeValid = false;
        request = kInvalidId;
        grantedVc = kInvalidId;
        parkedGen = 0;
        frozen = false;
        frozenOutport = kInvalidId;
    }
    return f;
}

} // namespace spin
