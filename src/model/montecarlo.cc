#include "model/montecarlo.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "runtime/thread_pool.hh"

namespace ctamem::model {

namespace {

/** Flip probabilities shared by every trial of one spec. */
struct TrialSetup
{
    explicit TrialSetup(const SystemParams &params)
        : n(params.indicatorBits()),
          pUp(params.errors.upFlipProb(params.zoneCells)),
          pDown(params.errors.downFlipProb(params.zoneCells)),
          allOnes((1ULL << n) - 1)
    {}

    unsigned n;
    double pUp;
    double pDown;
    std::uint64_t allOnes;
};

bool
fixedZerosTrial(Rng &rng, const TrialSetup &setup, unsigned zeros,
                std::vector<unsigned> &positions)
{
    // Choose which indicator bits are zero (Fisher-Yates prefix).
    for (unsigned i = 0; i < setup.n; ++i)
        positions[i] = i;
    for (unsigned i = 0; i < zeros; ++i) {
        const unsigned j =
            i + static_cast<unsigned>(rng.below(setup.n - i));
        std::swap(positions[i], positions[j]);
    }
    bool exploitable = true;
    for (unsigned i = 0; i < setup.n && exploitable; ++i) {
        if (i < zeros)
            exploitable = rng.chance(setup.pUp);    // must flip up
        else
            exploitable = !rng.chance(setup.pDown); // must hold
    }
    return exploitable;
}

bool
uniformTrial(Rng &rng, const TrialSetup &setup)
{
    // Uniform pointer below the low water mark: its indicator is
    // uniform over [0, 2^n - 1) (the all-ones value IS the zone).
    const std::uint64_t indicator = rng.below(setup.allOnes);
    std::uint64_t value = indicator;
    for (unsigned bit = 0; bit < setup.n; ++bit) {
        const bool set = (value >> bit) & 1;
        if (!set && rng.chance(setup.pUp))
            value |= 1ULL << bit;
        else if (set && rng.chance(setup.pDown))
            value &= ~(1ULL << bit);
    }
    return value == setup.allOnes;
}

// ---------------------------------------------------------------
// Bit-sliced batched kernel.
//
// Trials run in blocks of 64 lanes.  For each indicator bit the flip
// outcome across the whole block is one Bernoulli mask, so a block's
// verdict ("value == allOnes" per lane) collapses to an AND-reduce
// over ~n words and a popcount.  Importance sampling reuses the same
// kernel: flips are drawn at tilted probabilities (qUp, qDown) and
// each hit contributes its likelihood ratio instead of 1 — Standard
// mode is the identity tilt, where every weight is exactly 1.
// ---------------------------------------------------------------

/** Per-chunk tallies of the batched kernel.  Summed in chunk-index
 *  order, so the fold is exact in the integer fields and performed
 *  in a fixed double-addition order — bit-identical at any thread
 *  count. */
struct BatchTally
{
    std::uint64_t trials = 0;
    std::uint64_t hits = 0;
    double sumW = 0.0;  //!< sum of hit weights (== hits, untitled)
    double sumW2 = 0.0; //!< sum of squared hit weights

    void
    merge(const BatchTally &other)
    {
        trials += other.trials;
        hits += other.hits;
        sumW += other.sumW;
        sumW2 += other.sumW2;
    }
};

/** Sampling probabilities and likelihood-ratio weights of one spec. */
struct BatchSetup
{
    BatchSetup(const McSpec &spec)
        : base(spec.params)
    {
        if (spec.mode == Mode::ImportanceSampled) {
            qUp = spec.tiltUp > 0.0
                      ? spec.tiltUp
                      : std::max(base.pUp, 0.5);
            qDown = spec.tiltDown > 0.0 ? spec.tiltDown : base.pDown;
        } else {
            qUp = base.pUp;
            qDown = base.pDown;
        }
        // FixedZeros hold masks collapse to one draw: the AND of
        // n - zeros independent Bernoulli(1 - qDown) masks is itself
        // Bernoulli((1 - qDown)^(n - zeros)) per lane.
        qHoldAll = std::pow(1.0 - qDown,
                            static_cast<int>(base.n - spec.zeros));
        identityWeights =
            qUp == base.pUp && qDown == base.pDown;
        // A hit with z indicator zeros saw z up-flips succeed and
        // n - z holds succeed; its likelihood ratio factorizes as
        // (pUp/qUp)^z * ((1-pDown)/(1-qDown))^(n-z).
        const double w_up = qUp > 0.0 ? base.pUp / qUp : 0.0;
        const double w_hold =
            qDown < 1.0 ? (1.0 - base.pDown) / (1.0 - qDown) : 0.0;
        weightByZeros.resize(base.n + 1);
        for (unsigned z = 0; z <= base.n; ++z) {
            weightByZeros[z] =
                std::pow(w_up, z) *
                std::pow(w_hold, base.n - z);
        }
    }

    TrialSetup base;
    double qUp;
    double qDown;
    /** P(no down-flip in any of the n - zeros held bits). */
    double qHoldAll;
    bool identityWeights;
    /** Hit weight as a function of the indicator's zero count. */
    std::vector<double> weightByZeros;
};

/** Fold @p hits_mask (restricted to live lanes) into @p tally with
 *  one shared weight — the FixedZeros case, and any case where all
 *  hits in the block weigh the same. */
void
tallyUniformWeight(std::uint64_t hits_mask, double weight,
                   BatchTally &tally)
{
    const unsigned h = popcount(hits_mask);
    tally.hits += h;
    tally.sumW += weight * h;
    tally.sumW2 += weight * weight * h;
}

/**
 * One 64-lane block of FixedZeros trials.  Which positions hold the
 * zeros never affects the verdict (the flip draws are i.i.d. across
 * positions), so the block reduces to: all `zeros` up-flips succeed
 * AND all n - zeros holds succeed — one up mask per zero bit, and
 * the holds collapsed into a single qHoldAll mask.
 */
void
fixedZerosBlock(Rng &rng, const BatchSetup &setup, unsigned zeros,
                std::uint64_t lane_mask, BatchTally &tally)
{
    // Each mask is restricted to the lanes still in play, so after
    // the first up mask kills most of the block the remaining draws
    // cost ~2 words each instead of ~8.
    std::uint64_t hits = lane_mask;
    for (unsigned i = 0; i < zeros && hits; ++i)
        hits &= rng.bernoulliMask(setup.qUp, hits);
    if (hits)
        hits &= rng.bernoulliMask(setup.qHoldAll, hits);
    tally.trials += popcount(lane_mask);
    tallyUniformWeight(hits, setup.weightByZeros[zeros], tally);
}

/**
 * One 64-lane block of Uniform trials.  ind[b] holds indicator bit b
 * of every lane; lanes that draw the all-ones indicator (the zone
 * itself) are redrawn scalar-wise from nextBounded, preserving the
 * uniform-below-allOnes distribution of the scalar sampler.
 */
void
uniformBlock(Rng &rng, const BatchSetup &setup,
             std::uint64_t lane_mask, BatchTally &tally)
{
    const unsigned n = setup.base.n;
    std::uint64_t ind[64];
    for (unsigned b = 0; b < n; ++b)
        ind[b] = rng.next();

    std::uint64_t all_ones = lane_mask;
    for (unsigned b = 0; b < n && all_ones; ++b)
        all_ones &= ind[b];
    while (all_ones) {
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(all_ones));
        all_ones &= all_ones - 1;
        const std::uint64_t redraw =
            rng.nextBounded(setup.base.allOnes);
        for (unsigned b = 0; b < n; ++b) {
            ind[b] = (ind[b] & ~(1ULL << lane)) |
                     (((redraw >> b) & 1ULL) << lane);
        }
    }

    std::uint64_t hits = lane_mask;
    for (unsigned b = 0; b < n && hits; ++b) {
        // Flip masks narrowed to the lanes still in play; dead lanes
        // get 0 bits, which the AND below ignores.
        const std::uint64_t up = rng.bernoulliMask(setup.qUp, hits);
        const std::uint64_t down = rng.bernoulliMask(setup.qDown, hits);
        // Post-flip value of bit b, lane-parallel.
        hits &= (ind[b] & ~down) | (~ind[b] & up);
    }

    tally.trials += popcount(lane_mask);
    if (setup.identityWeights) {
        tallyUniformWeight(hits, 1.0, tally);
        return;
    }
    // Tilted: a hit's weight depends on its indicator's zero count.
    while (hits) {
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(hits));
        hits &= hits - 1;
        unsigned zeros = 0;
        for (unsigned b = 0; b < n; ++b)
            zeros += !((ind[b] >> lane) & 1ULL);
        const double w = setup.weightByZeros[zeros];
        ++tally.hits;
        tally.sumW += w;
        tally.sumW2 += w * w;
    }
}

/** Run one seeding chunk of a batched spec (64-lane blocks; the
 *  ragged tail masks out the dead lanes). */
BatchTally
runBatchedChunk(const McSpec &spec, const BatchSetup &setup,
                std::uint64_t chunkIndex, std::uint64_t trials)
{
    Rng rng(deriveSeed(spec.seed, chunkIndex));
    BatchTally tally;
    for (std::uint64_t done = 0; done < trials; done += 64) {
        const std::uint64_t live =
            std::min<std::uint64_t>(64, trials - done);
        const std::uint64_t lane_mask =
            live == 64 ? ~0ULL : (1ULL << live) - 1;
        if (spec.sampler == Sampler::FixedZerosBatched)
            fixedZerosBlock(rng, setup, spec.zeros, lane_mask, tally);
        else
            uniformBlock(rng, setup, lane_mask, tally);
    }
    return tally;
}

/** Index-ordered fold of per-chunk tallies into the estimate. */
McEstimate
summarizeBatched(const std::vector<BatchTally> &chunks)
{
    BatchTally total;
    for (const BatchTally &chunk : chunks)
        total.merge(chunk);
    const double m = static_cast<double>(total.trials);
    const double mean = total.sumW / m;
    // Var(w * 1_hit) = E[w^2 1_hit] - mean^2; for the identity tilt
    // this is exactly the Bernoulli mean(1 - mean).
    const double var =
        std::max(0.0, total.sumW2 / m - mean * mean);
    McEstimate estimate;
    estimate.mean = mean;
    estimate.stderr = std::sqrt(var / m);
    estimate.trials = total.trials;
    estimate.ess =
        total.sumW2 > 0.0 ? total.sumW * total.sumW / total.sumW2
                          : 0.0;
    return estimate;
}

/** Trials covered by chunk @p index of the spec. */
std::uint64_t
chunkTrials(const McSpec &spec, std::uint64_t index,
            std::uint64_t chunks)
{
    if (index + 1 < chunks)
        return spec.chunkSize;
    return spec.trials - spec.chunkSize * (chunks - 1);
}

/**
 * Run one seeding chunk.  The chunk's Rng is derived from
 * (seed, chunkIndex) alone, so chunks are independent of execution
 * order and of each other.
 */
MomentAccumulator
runChunk(const McSpec &spec, std::uint64_t chunkIndex,
         std::uint64_t trials)
{
    const TrialSetup setup(spec.params);
    Rng rng(deriveSeed(spec.seed, chunkIndex));
    MomentAccumulator moments;
    std::vector<unsigned> positions(setup.n);
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
        bool hit = false;
        switch (spec.sampler) {
          case Sampler::FixedZeros:
            hit = fixedZerosTrial(rng, setup, spec.zeros, positions);
            break;
          case Sampler::Uniform:
            hit = uniformTrial(rng, setup);
            break;
          case Sampler::FixedZerosBatched:
          case Sampler::UniformBatched:
            fatal("runChunk: batched sampler on the scalar path");
        }
        moments.record(hit ? 1.0 : 0.0);
    }
    return moments;
}

void
validate(const McSpec &spec)
{
    if (spec.trials == 0)
        fatal("runMc: zero trials");
    if (spec.chunkSize == 0)
        fatal("runMc: zero chunkSize");
    if ((spec.sampler == Sampler::FixedZeros ||
         spec.sampler == Sampler::FixedZerosBatched) &&
        spec.zeros > spec.params.indicatorBits())
        fatal("runMc: zeros > indicator bits");
    if (spec.mode == Mode::ImportanceSampled &&
        !isBatched(spec.sampler))
        fatal("runMc: importance sampling requires a batched "
              "sampler");
    if (spec.tiltUp < 0.0 || spec.tiltUp > 1.0 ||
        spec.tiltDown < 0.0 || spec.tiltDown > 1.0)
        fatal("runMc: tilt probabilities outside [0, 1]");
}

std::uint64_t
chunkCount(const McSpec &spec)
{
    return (spec.trials + spec.chunkSize - 1) / spec.chunkSize;
}

/** Index-ordered fold of per-chunk moments into the estimate. */
McEstimate
summarize(const std::vector<MomentAccumulator> &chunks)
{
    MomentAccumulator total;
    for (const MomentAccumulator &chunk : chunks)
        total.merge(chunk);
    McEstimate estimate{total.mean(), total.stderrOfMean(),
                        total.count()};
    // For 0/1 samples the hit count is mean * n, recovered exactly
    // enough for an effective-sample-size report.
    estimate.ess =
        total.mean() * static_cast<double>(total.count());
    return estimate;
}

/** Batched kernel, serial or on @p pool (chunks are independent). */
McEstimate
runBatched(const McSpec &spec, runtime::ThreadPool *pool)
{
    const BatchSetup setup(spec);
    const std::uint64_t chunks = chunkCount(spec);
    std::vector<BatchTally> partial(chunks);
    auto one = [&](std::uint64_t i) {
        partial[i] =
            runBatchedChunk(spec, setup, i,
                            chunkTrials(spec, i, chunks));
    };
    if (pool) {
        // Each chunk writes only its own slot; the fold walks slots
        // in index order, so thread count cannot affect the result.
        pool->parallelFor(0, chunks, one, /*grain=*/1);
    } else {
        for (std::uint64_t i = 0; i < chunks; ++i)
            one(i);
    }
    return summarizeBatched(partial);
}

} // namespace

McEstimate
runMc(const McSpec &spec)
{
    validate(spec);
    if (isBatched(spec.sampler))
        return runBatched(spec, nullptr);
    const std::uint64_t chunks = chunkCount(spec);
    std::vector<MomentAccumulator> partial(chunks);
    for (std::uint64_t i = 0; i < chunks; ++i)
        partial[i] = runChunk(spec, i, chunkTrials(spec, i, chunks));
    return summarize(partial);
}

McEstimate
runMc(const McSpec &spec, runtime::ThreadPool &pool)
{
    validate(spec);
    if (isBatched(spec.sampler))
        return runBatched(spec, &pool);
    const std::uint64_t chunks = chunkCount(spec);
    std::vector<MomentAccumulator> partial(chunks);
    // Each chunk writes only its own slot; the fold below walks the
    // slots in index order, so thread count cannot affect the result.
    pool.parallelFor(0, chunks, [&](std::uint64_t i) {
        partial[i] = runChunk(spec, i, chunkTrials(spec, i, chunks));
    }, /*grain=*/1);
    return summarize(partial);
}

} // namespace ctamem::model
