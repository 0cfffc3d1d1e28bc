/**
 * @file
 * Byte-level contract between the sweep supervisor and its worker
 * subprocesses (DESIGN.md §15).
 *
 * A sweep point (one RunItem: network config, traffic, run parameters)
 * crosses the process boundary twice:
 *
 *   spec    supervisor -> worker   the complete point description,
 *                                  sealed in the ckpt container under a
 *                                  fixed spec-domain hash (magic/CRC
 *                                  validated before any field decodes)
 *   result  worker -> supervisor   the point's SyntheticResult, sealed
 *                                  under the *point hash* — the ckpt
 *                                  config hash extended with the
 *                                  traffic and phase parameters — so a
 *                                  result file can only be accepted for
 *                                  the exact point that produced it
 *
 * Both images, the point hash and the config hash walk the one field
 * list of each type in ckpt/schema.h (ckpt::put, ckpt::take, ckpt::mix),
 * so the wire order and the hash order cannot drift apart. Every field
 * is encoded at full width (doubles by bit pattern), so a result that
 * round-trips through a worker, the journal, or a resume is
 * bit-identical to the in-process value: the merged sweep output is
 * pinned byte-for-byte equal to an uninterrupted serial run.
 *
 * The same point hash keys the sweep journal (ckpt/journal.h): a
 * journal record written for one point can never be replayed into
 * another, and reordering the sweep grid between runs is harmless.
 */
#ifndef CATNAP_EXEC_POINT_CODEC_H
#define CATNAP_EXEC_POINT_CODEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "exec/sweep_runner.h"
#include "sim/simulator.h"

namespace catnap {

/**
 * The 64-bit identity of one sweep point: ckpt::run_identity under the
 * "PNT1" domain tag, over the same config, traffic and phase fields as
 * SyntheticRun's "RUN1" run-checkpoint hash. Keys journal records and
 * seals worker result files.
 */
std::uint64_t point_hash(const RunItem &item);

/** A point key as 16 lower-case hex digits (scratch file names,
 * quarantine summaries, diagnostics). */
std::string key_hex(std::uint64_t key);

/** Serializes @p item as a sealed point-spec file image. */
std::vector<std::uint8_t> encode_point_spec(const RunItem &item);

/**
 * Validates and decodes a point-spec image. Throws ckpt::CkptError on
 * a damaged or foreign file (magic/version/CRC checked before any
 * field decodes).
 */
RunItem decode_point_spec(const std::vector<std::uint8_t> &bytes);

/** Serializes @p res as a result image sealed under @p item's hash. */
std::vector<std::uint8_t> encode_point_result(const RunItem &item,
                                              const SyntheticResult &res);

/**
 * Validates and decodes a worker result image against the point that
 * requested it. Throws ckpt::CkptError when the image is truncated,
 * corrupt, or belongs to a different point.
 */
SyntheticResult decode_point_result(const RunItem &item,
                                    const std::vector<std::uint8_t> &bytes);

} // namespace catnap

#endif // CATNAP_EXEC_POINT_CODEC_H
