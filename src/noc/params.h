/**
 * @file
 * Structural and timing parameters of one network (or of each subnet in a
 * Multi-NoC). Policy choices (subnet selection, gating, congestion
 * metrics) live in catnap/; this header is substrate-only.
 */
#ifndef CATNAP_NOC_PARAMS_H
#define CATNAP_NOC_PARAMS_H

#include "common/types.h"

namespace catnap {

/**
 * Parameters of a single subnet's routers and links. Defaults follow the
 * paper's configuration (Table 1, Section 4).
 */
struct SubnetParams
{
    /** Link / datapath width in bits (512 for 1NT, 128 for 4NT, ...). */
    int link_width_bits = 128;

    /** Virtual channels per input port. */
    int num_vcs = 4;

    /** Buffer depth per VC, in flits (constant across configs, §2.3). */
    int vc_depth_flits = 4;

    /**
     * Number of message classes actively mapped onto the VCs. VCs are
     * statically partitioned among classes (num_vcs / num_classes VCs per
     * class) to guarantee protocol-level deadlock freedom. Synthetic
     * traffic uses one class and may therefore use every VC.
     */
    int num_classes = 1;

    /** Link traversal delay in cycles. */
    int link_delay = 1;

    /** Switch (crossbar) traversal delay in cycles. */
    int st_delay = 1;

    /** Cycles from a buffer read until the credit is usable upstream. */
    int credit_delay = 2;

    /** Cycles to transition sleep -> active (paper SPICE: 10). */
    int t_wakeup = 10;

    /** Sleep cycles needed to amortize one gating transition (paper: 12). */
    int t_breakeven = 12;

    /** Consecutive empty-buffer cycles before sleep is considered (4). */
    int t_idle_detect = 4;

    /**
     * Fine-grained per-port power gating (Matsutani et al. [20]): each
     * input port's buffers and incoming link gate independently instead
     * of the whole router. Requires GatingKind::kFinePort. The shared
     * crossbar/clock/control stay powered, which is exactly why the
     * paper argues whole-subnet gating saves so much more.
     */
    bool port_gating = false;

    /** VCs usable by message class @p mc (contiguous static partition). */
    int
    first_vc_of_class(int mc) const
    {
        const int per = num_vcs / num_classes;
        return mc * per;
    }

    /** Number of VCs in each class's partition. */
    int vcs_per_class() const { return num_vcs / num_classes; }

    /** Class index a VC belongs to. */
    int class_of_vc(int vc) const { return vc / vcs_per_class(); }
};

} // namespace catnap

#endif // CATNAP_NOC_PARAMS_H
