/**
 * @file
 * The network whose raw checkpoint payloads fuzz_ckpt_reader decodes
 * (surface 5) and fuzz_seed_corpus writes mid-traffic: two subnets on a
 * 2x2 mesh with a fault plan, so the payload holds a failed router,
 * lost- and delayed-wake windows and the NIs' delivery tracking while
 * staying small enough to mutate.
 */
#ifndef CATNAP_TESTS_FUZZ_FUZZ_NETWORK_H
#define CATNAP_TESTS_FUZZ_FUZZ_NETWORK_H

#include "noc/multinoc.h"

namespace catnap {

inline MultiNocConfig
fuzz_network_config()
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    cfg.mesh_width = cfg.mesh_height = 2;
    cfg.region_width = 1;
    cfg.num_vcs = 2;
    cfg.fault.kill_router(150, 1, 3)
        .lose_wakes(100, 1, 1, 400)
        .delay_wakes(100, 1, 2, 400, 30);
    cfg.fault.wake_loss_prob = 0.05;
    return cfg;
}

} // namespace catnap

#endif // CATNAP_TESTS_FUZZ_FUZZ_NETWORK_H
