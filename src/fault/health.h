/**
 * @file
 * Per-subnet health tracking for the fault model (DESIGN.md §10).
 *
 * Hard faults in this simulator have subnet granularity: X-Y routing
 * cannot steer around a dead router or link, so a hard fault anywhere in
 * a subnet removes the whole subnet from service. The Multi-NoC's
 * redundancy story is exactly that the remaining subnets keep the chip
 * connected (Section 2.2 of the paper argues subnets are independently
 * usable fabrics).
 *
 * HealthMask is the plain bit-vector consulted on hot paths (subnet
 * selection); HealthMonitor wraps it with transition bookkeeping and
 * trace-event publication.
 */
#ifndef CATNAP_FAULT_HEALTH_H
#define CATNAP_FAULT_HEALTH_H

#include <cstdint>
#include <vector>

#include "ckpt/fields.h"
#include "common/types.h"
#include "obs/event.h"
#include "common/phase.h"

namespace catnap {

/** Which subnets are still in service. All healthy at construction. */
class HealthMask
{
  public:
    explicit HealthMask(int num_subnets)
        : healthy_(static_cast<std::size_t>(num_subnets), true)
    {
    }

    int
    num_subnets() const
    {
        return static_cast<int>(healthy_.size());
    }

    /** True while subnet @p s is in service. */
    bool
    healthy(SubnetId s) const
    {
        return healthy_[static_cast<std::size_t>(s)];
    }

    /** Subnets still in service. */
    int
    num_healthy() const
    {
        int count = 0;
        for (const bool h : healthy_)
            count += h ? 1 : 0;
        return count;
    }

    /**
     * Lowest-order healthy subnet, or kNoSubnet when every subnet has
     * failed. Under the Catnap policy this subnet is promoted to the
     * never-sleep duty subnet 0 normally holds.
     */
    SubnetId
    lowest_healthy() const
    {
        for (std::size_t s = 0; s < healthy_.size(); ++s)
            if (healthy_[s])
                return static_cast<SubnetId>(s);
        return kNoSubnet;
    }

    /**
     * Highest healthy subnet strictly below @p s (the "lower-order"
     * subnet whose RCS gates subnet @p s's sleep), or kNoSubnet.
     */
    SubnetId
    next_lower_healthy(SubnetId s) const
    {
        for (SubnetId c = s - 1; c >= 0; --c)
            if (healthy_[static_cast<std::size_t>(c)])
                return c;
        return kNoSubnet;
    }

    /** Removes subnet @p s from service. */
    CATNAP_PHASE_WRITE void
    mark_failed(SubnetId s)
    {
        healthy_[static_cast<std::size_t>(s)] = false;
    }

    /** Appends the health bits to a checkpoint (DESIGN.md §13). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w) const
    {
        ckpt::put(w, healthy_);
    }

    /** Restores the health bits from a checkpoint. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r)
    {
        healthy_ = ckpt::take_exact(r, healthy_, "subnet health bit");
    }

  private:
    std::vector<bool> healthy_;
};

/**
 * Owns the HealthMask and publishes every health transition as a
 * kSubnetHealth trace event (and, via the mask, as snapshot columns).
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(int num_subnets) : mask_(num_subnets) {}

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink) { sink_ = sink; }

    const HealthMask &mask() const { return mask_; }

    /** The subnet currently holding the never-sleep duty. */
    SubnetId never_sleep_subnet() const { return mask_.lowest_healthy(); }

    /** Subnet failures recorded so far. */
    std::uint64_t subnet_failures() const { return failures_; }

    /**
     * Marks subnet @p s failed and publishes the transition.
     * @p root is the node whose fault took the subnet down.
     */
    CATNAP_PHASE_WRITE void
    mark_failed(SubnetId s, NodeId root, Cycle now)
    {
        if (!mask_.healthy(s))
            return;
        mask_.mark_failed(s);
        ++failures_;
        if (sink_) {
            sink_->on_event({now, EventKind::kSubnetHealth, root, s, 0,
                             never_sleep_subnet(), 0});
        }
    }

    /** Appends the mask and failure count to a checkpoint. */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w) const
    {
        mask_.Serialize(w);
        w.put_u64(failures_);
    }

    /** Restores the mask and failure count (sink wiring untouched). */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r)
    {
        mask_.Deserialize(r);
        failures_ = r.take_u64();
    }

  private:
    HealthMask mask_;
    EventSink *sink_ = nullptr;
    std::uint64_t failures_ = 0;
};

} // namespace catnap

#endif // CATNAP_FAULT_HEALTH_H
