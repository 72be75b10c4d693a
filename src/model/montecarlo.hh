/**
 * @file
 * Monte-Carlo cross-checks of the closed-form security model.
 *
 * Two spray-content distributions:
 *  - attacker-optimal content (the paper's implicit assumption): the
 *    attacker sprays PTEs whose indicators carry the minimum number
 *    of zeros the restriction allows, and any choice of which bits
 *    are zero is equally available — matching the C(n,i) weighting
 *    of the formula;
 *  - uniform pointers below the low water mark, the conservative
 *    variant, showing the formula upper-bounds real spray content.
 *
 * Each exists in two implementations: the scalar reference samplers
 * (one RNG draw and one double compare per indicator bit per trial;
 * their draw sequences are frozen — the Table 1/2/3 cross-check
 * outputs depend on them) and the bit-sliced *batched* samplers,
 * which process trials in blocks of 64 lanes where every indicator
 * bit's flip outcome across the whole block is one Bernoulli mask
 * (Rng::bernoulliMask), reducing a block to ~n AND/OR word ops and a
 * popcount verdict.  The batched samplers also support importance
 * sampling (Mode::ImportanceSampled): flips are drawn from a tilted
 * distribution and every hit is weighted by its likelihood ratio,
 * making tails around 1e-9 and far below directly estimable.
 *
 * The entry point is runMc() over an McSpec.  Trials are evaluated in
 * fixed-size chunks; chunk i draws from Rng(deriveSeed(seed, i)) and
 * per-chunk results are folded in chunk-index order, so for a fixed
 * spec the estimate is bit-identical whether it runs serially or on
 * a thread pool of any size.  Scalar and batched samplers draw
 * *different* (identically distributed) streams from the same seed.
 */

#ifndef CTAMEM_MODEL_MONTECARLO_HH
#define CTAMEM_MODEL_MONTECARLO_HH

#include <cstdint>

#include "common/rng.hh"
#include "model/security_model.hh"

namespace ctamem::runtime {
class ThreadPool;
} // namespace ctamem::runtime

namespace ctamem::model {

/** Monte-Carlo estimate with its standard error. */
struct McEstimate
{
    double mean;
    double stderr;
    std::uint64_t trials;
    /**
     * Kish effective sample size: the hit count for the unweighted
     * samplers, (sum w)^2 / (sum w^2) over hits for the
     * importance-sampled ones.  0 when no trial hit.
     */
    double ess = 0.0;
};

/** Which spray-content distribution a Monte-Carlo run samples. */
enum class Sampler : std::uint8_t
{
    FixedZeros, //!< attacker-optimal: exactly `zeros` indicator zeros
    Uniform,    //!< uniform pointers below the low water mark
    /** Bit-sliced 64-lane kernel over FixedZeros content. */
    FixedZerosBatched,
    /** Bit-sliced 64-lane kernel over Uniform content. */
    UniformBatched,
};

/** True for the bit-sliced block samplers. */
constexpr bool
isBatched(Sampler sampler)
{
    return sampler == Sampler::FixedZerosBatched ||
           sampler == Sampler::UniformBatched;
}

/** How trials turn into the estimate. */
enum class Mode : std::uint8_t
{
    /** Direct indicator average (every weight is 1). */
    Standard,
    /**
     * Rare-event estimator: flips are sampled from a tilted
     * distribution (tiltUp/tiltDown, auto-chosen when 0) and each
     * hit is weighted by its likelihood ratio.  Unbiased for the
     * same probability the Standard mode estimates, but with
     * nonvanishing hit rates even at tail probabilities the direct
     * estimator cannot reach (batched samplers only).
     */
    ImportanceSampled,
};

/** One fully-specified Monte-Carlo experiment. */
struct McSpec
{
    SystemParams params;
    Sampler sampler = Sampler::FixedZeros;
    Mode mode = Mode::Standard;
    /** Indicator zeros per sprayed PTE (FixedZeros samplers only). */
    unsigned zeros = 1;
    std::uint64_t trials = 200'000;
    std::uint64_t seed = seeds::kMonteCarlo;
    /** Trials per seeding chunk; part of the result's identity. */
    std::uint64_t chunkSize = 16'384;
    /**
     * ImportanceSampled knobs: the tilted per-bit flip probabilities
     * actually sampled.  0 picks defaults — up-flips tilted to at
     * least 1/2 so hits are common, down-flips left untilted.
     */
    double tiltUp = 0.0;
    double tiltDown = 0.0;
};

/** Run the experiment serially. */
McEstimate runMc(const McSpec &spec);

/**
 * Run the experiment's chunks on @p pool.  Bit-identical to the
 * serial overload for the same spec, at any pool size.
 */
McEstimate runMc(const McSpec &spec, runtime::ThreadPool &pool);

} // namespace ctamem::model

#endif // CTAMEM_MODEL_MONTECARLO_HH
