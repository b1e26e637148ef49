/**
 * @file
 * Multi-accelerator SoC scenario generators.
 *
 * Composes the existing component library into systems bigger than one
 * accelerator: several systolic arrays sharing one bus/DMA complex with
 * real contention, and GEMM-style layer pipelines chained through
 * on-chip buffers. Every family is a parameterized generator whose
 * config is one field table (soc.cc; equality, hash and validation
 * derive from it) so sweep harnesses and worker caches can key on it.
 *
 * Families:
 *   buildSocModule       N systolic tiles (WS/OS mix) behind one shared
 *                        bus + DMA pool + shared SRAM. Boundary reads
 *                        and result writes travel over the shared bus
 *                        connection, staging memcpys ride the DMA pool,
 *                        per-tile links carry preload/drain traffic.
 *   buildPipelineModule  a chain of compute stages double-ended by
 *                        in/out DMAs, items flowing through per-stage
 *                        on-chip buffers with structural hazards
 *                        (stage s of item t waits for stage s+1 of
 *                        item t-1 to free the buffer).
 *
 * The SoC bodies deliberately lean on connection-carrying reads/writes
 * — the records the superinstruction fuser skips — so these scenarios
 * double as the profile workload for the ROADMAP's follow-on fusion
 * work.
 *
 * expectedSocTraffic / expectedPipelineTraffic give closed-form byte
 * counts for every connection so property tests can assert exact byte
 * conservation instead of loose bounds.
 */

#ifndef EQ_SOC_SOC_HH
#define EQ_SOC_SOC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/fields.hh"
#include "ir/builder.hh"
#include "scalesim/scalesim.hh"

namespace eq {
namespace soc {

using fields::operator==;
using fields::operator!=;

/** One systolic tile on the shared bus. */
struct TileSpec {
    int ah = 2;           ///< array rows
    int aw = 2;           ///< array cols
    scalesim::Dataflow dataflow = scalesim::Dataflow::WS;
    int64_t linkBytesPerCycle = 8; ///< private link (preload/drain)

    static const fields::Table &fieldTable();
};

/** Shared-bus multi-accelerator SoC configuration. */
struct SocConfig {
    std::vector<TileSpec> accels = {TileSpec{}, TileSpec{}};
    int64_t busBytesPerCycle = 8; ///< shared bus bandwidth
    std::string busKind = "Streaming"; ///< "Streaming" or "Window"
    unsigned sramBanks = 4;       ///< shared SRAM bank count
    int dmaEngines = 1;           ///< DMA pool size (FIFO per engine)
    int rounds = 2;               ///< outer rounds (stage + compute)
    int steps = 4;                ///< systolic steps per round
    int64_t elemBytes = 4;

    /** The field table (soc.cc), with the "tiles" composite axis. */
    static const fields::Table &fieldTable();
    uint64_t hash() const { return fields::hash(fieldTable(), this); }

    /** Two identical WS tiles contending for one bus + one DMA (the
     *  family defaults). */
    static SocConfig dualSharedBus() { return {}; }
    /** WS + OS mix behind a narrow Window bus, few banks, one DMA. */
    static SocConfig heteroStarved();
};

/** Buffered layer-pipeline configuration. */
struct PipelineConfig {
    int stages = 4;          ///< compute stages in the chain
    int batches = 6;         ///< items pushed through the pipeline
    int64_t tileElems = 16;  ///< elements per item tile
    int computePerElem = 2;  ///< chained MACs per element per stage
    int64_t dmaBytesPerCycle = 8; ///< in/out DMA connection bandwidth
    int64_t hopBytesPerCycle = 4; ///< stage-to-stage hop bandwidth
    int64_t elemBytes = 4;

    static const fields::Table &fieldTable();
    uint64_t hash() const { return fields::hash(fieldTable(), this); }

    static PipelineConfig small() { return {}; }
};

/** Exact per-connection byte counts for a SocConfig run. */
struct SocTraffic {
    int64_t busReadBytes = 0;
    int64_t busWriteBytes = 0;
    /** Per-accelerator private-link traffic, index-aligned with
     *  SocConfig::accels. WS tiles read preloads; OS tiles write
     *  drained accumulators. */
    std::vector<int64_t> linkReadBytes;
    std::vector<int64_t> linkWriteBytes;
};

/** Exact per-connection byte counts for a PipelineConfig run. */
struct PipelineTraffic {
    int64_t inBytes = 0;  ///< DMA-in connection write bytes
    int64_t outBytes = 0; ///< DMA-out connection write bytes
    int64_t hopBytes = 0; ///< each stage hop connection write bytes
};

SocTraffic expectedSocTraffic(const SocConfig &cfg);
PipelineTraffic expectedPipelineTraffic(const PipelineConfig &cfg);

ir::OwningOpRef buildSocModule(ir::Context &ctx, const SocConfig &cfg);
ir::OwningOpRef buildPipelineModule(ir::Context &ctx,
                                    const PipelineConfig &cfg);

} // namespace soc
} // namespace eq

#endif // EQ_SOC_SOC_HH
