/**
 * @file
 * Tests of the closed-form security model against the values the
 * paper publishes (abstract, Section 5, Tables 2 and 3), plus
 * Monte-Carlo cross-checks and the capacity model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/combinatorics.hh"
#include "dram/cell_types.hh"
#include "model/capacity.hh"
#include "model/montecarlo.hh"
#include "model/security_model.hh"
#include "model/tables.hh"

namespace ctamem::model {
namespace {

SystemParams
paperBaseline()
{
    SystemParams params;
    params.memBytes = 8 * GiB;
    params.ptpBytes = 32 * MiB;
    return params;
}

TEST(SecurityModel, HeadlinePExploitable)
{
    // Section 5: P_exploitable = 1.6e-6 for the 8 GiB / 32 MiB case.
    EXPECT_NEAR(pExploitable(paperBaseline()), 1.6e-6, 0.05e-6);
}

TEST(SecurityModel, HeadlineExpectedPtes)
{
    // Section 5: 4,194,304 PTEs, expected 6.7 exploitable.
    const SystemParams params = paperBaseline();
    EXPECT_EQ(params.pteCount(), 4'194'304u);
    EXPECT_NEAR(expectedExploitablePtes(params), 6.7, 0.05);
}

TEST(SecurityModel, RestrictedExpectedPtes)
{
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    EXPECT_NEAR(expectedExploitablePtes(params), 4.69e-6, 0.05e-6);
}

TEST(SecurityModel, OneInTwoHundredThousandSystems)
{
    // Abstract: "only one out of 2.04e5 systems is vulnerable".
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    const double fraction = vulnerableSystemFraction(params);
    // The paper rounds to 2.04e5; its own E = 4.69e-6 implies
    // 1/4.69e-6 = 2.13e5, which is what the exact model yields.
    EXPECT_NEAR(1.0 / fraction, 2.13e5, 0.05e5);
}

TEST(SecurityModel, AttackTimeUnrestricted)
{
    // Section 5's walk-through: per-page 19.08 s, 57.6 days average.
    const AttackTime time = expectedAttackTime(paperBaseline());
    EXPECT_NEAR(time.perPageSeconds, 19.08, 0.05);
    EXPECT_NEAR(time.avgDays, 57.6, 0.3);
}

TEST(SecurityModel, AttackTimeRestricted)
{
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    const AttackTime time = expectedAttackTime(params);
    EXPECT_NEAR(time.avgDays, 230.7, 0.5);
    // Six orders of magnitude slower than the fastest published
    // attack (20 seconds).
    const double seconds = time.avgDays * 86400.0;
    EXPECT_GT(seconds / 20.0, 9.9e5);
}

TEST(SecurityModel, AntiCellZoneAblation)
{
    // Section 5: a ZONE_PTP made of anti-cells has ~3354.7 expected
    // exploitable PTEs and an expected attack time of ~3.2 hours —
    // the low water mark alone is not a defense.
    SystemParams params = paperBaseline();
    params.zoneCells = dram::CellType::Anti;
    EXPECT_NEAR(expectedExploitablePtes(params), 3354.7, 15.0);
    const AttackTime time = expectedAttackTime(params);
    EXPECT_NEAR(time.avgDays * 24.0, 3.2, 0.2);
}

TEST(Table2, MatchesPaper)
{
    const std::vector<TableRow> rows = makeTable2();
    const std::vector<PaperReference> paper = paperTable2();
    ASSERT_EQ(rows.size(), paper.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_NEAR(rows[i].expectedPtes, paper[i].expectedPtes,
                    paper[i].expectedPtes * 0.01)
            << "row " << i;
        EXPECT_NEAR(rows[i].attackDays, paper[i].attackDays,
                    paper[i].attackDays * 0.01)
            << "row " << i;
    }
}

TEST(Table3, MatchesPaper)
{
    const std::vector<TableRow> rows = makeTable3();
    const std::vector<PaperReference> paper = paperTable3();
    ASSERT_EQ(rows.size(), paper.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_NEAR(rows[i].expectedPtes, paper[i].expectedPtes,
                    paper[i].expectedPtes * 0.02)
            << "row " << i;
        EXPECT_NEAR(rows[i].attackDays, paper[i].attackDays,
                    paper[i].attackDays * 0.01)
            << "row " << i;
    }
}

TEST(Table3, RestrictedTimesMatchTable2)
{
    // The paper notes the restricted attack times do not change under
    // pessimistic scaling (exactly-one-exploitable conditioning).
    const auto t2 = makeTable2();
    const auto t3 = makeTable3();
    for (std::size_t i = 0; i < t2.size(); ++i) {
        if (t2[i].restricted) {
            EXPECT_DOUBLE_EQ(t2[i].attackDays, t3[i].attackDays);
        }
    }
}

TEST(MonteCarlo, FixedZerosMatchesClosedFormTerm)
{
    // Boosted probabilities so 200k trials see plenty of events.
    SystemParams params = paperBaseline();
    params.errors.pf = 0.05;
    params.errors.p01True = 0.3;
    params.errors.p10True = 0.7;

    const unsigned n = params.indicatorBits();
    for (unsigned zeros : {1u, 2u}) {
        const double p_up = params.errors.upFlipProbTrue();
        const double p_down = params.errors.downFlipProbTrue();
        const double analytic =
            std::pow(p_up, zeros) *
            std::pow(1.0 - p_down, n - zeros);
        const McEstimate mc = runMc(
            {.params = params, .zeros = zeros, .trials = 400'000});
        EXPECT_NEAR(mc.mean, analytic, 5 * mc.stderr + 1e-9)
            << "zeros=" << zeros;
    }
}

TEST(MonteCarlo, UniformPointerIsBelowPaperFormula)
{
    SystemParams params = paperBaseline();
    params.errors.pf = 0.05;
    params.errors.p01True = 0.3;
    params.errors.p10True = 0.7;
    const McEstimate mc = runMc({.params = params,
                                 .sampler = Sampler::Uniform,
                                 .trials = 200'000});
    // The paper's formula assumes attacker-optimal spray content, so
    // it must upper-bound the uniform-content estimate.
    EXPECT_LT(mc.mean, pExploitable(params));
}

TEST(MonteCarlo, TrueCellsBeatAntiCells)
{
    SystemParams true_zone = paperBaseline();
    true_zone.errors.pf = 0.02;
    SystemParams anti_zone = true_zone;
    anti_zone.zoneCells = dram::CellType::Anti;
    const McEstimate mc_true =
        runMc({.params = true_zone, .zeros = 1, .trials = 200'000});
    const McEstimate mc_anti =
        runMc({.params = anti_zone, .zeros = 1, .trials = 200'000});
    EXPECT_LT(mc_true.mean * 10, mc_anti.mean + 1e-12);
}

SystemParams
boostedParams()
{
    SystemParams params = paperBaseline();
    params.errors.pf = 0.05;
    params.errors.p01True = 0.3;
    params.errors.p10True = 0.7;
    return params;
}

TEST(MonteCarloBatched, AgreesWithScalarWithin4Sigma)
{
    // Scalar and batched draw different streams from the same seed,
    // so they agree statistically, not bit-wise: the two independent
    // estimates of the same probability differ by at most 4 combined
    // sigma.
    McSpec scalar;
    scalar.params = boostedParams();
    scalar.zeros = 1;
    scalar.trials = 400'000;
    for (const auto [ref, batched] :
         {std::pair{Sampler::FixedZeros, Sampler::FixedZerosBatched},
          std::pair{Sampler::Uniform, Sampler::UniformBatched}}) {
        scalar.sampler = ref;
        McSpec fast = scalar;
        fast.sampler = batched;
        const McEstimate a = runMc(scalar);
        const McEstimate b = runMc(fast);
        const double sigma =
            std::sqrt(a.stderr * a.stderr + b.stderr * b.stderr);
        EXPECT_NEAR(a.mean, b.mean, 4 * sigma + 1e-12)
            << "sampler pair " << static_cast<int>(ref);
    }
}

TEST(MonteCarloBatched, FixedZerosMatchesClosedForm)
{
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::FixedZerosBatched;
    spec.trials = 400'000;
    for (unsigned zeros : {1u, 2u}) {
        spec.zeros = zeros;
        const double exact =
            pExploitableExactZeros(spec.params, zeros);
        const McEstimate mc = runMc(spec);
        EXPECT_EQ(mc.trials, spec.trials);
        EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9)
            << "zeros=" << zeros;
    }
}

TEST(MonteCarloBatched, UniformMatchesClosedForm)
{
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::UniformBatched;
    spec.trials = 400'000;
    const double exact = pExploitableUniform(spec.params);
    const McEstimate mc = runMc(spec);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9);
}

TEST(MonteCarloBatched, ImportanceSamplingUnbiasedAtBoostedParams)
{
    // Where the direct estimator also works, the likelihood-ratio
    // estimator must land on the same closed form.
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::FixedZerosBatched;
    spec.mode = Mode::ImportanceSampled;
    spec.zeros = 1;
    spec.trials = 400'000;
    const double exact = pExploitableExactZeros(spec.params, 1);
    const McEstimate mc = runMc(spec);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9);
    EXPECT_GT(mc.ess, 0.0);
}

TEST(MonteCarloBatched, UniformImportanceSamplingUnbiased)
{
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::UniformBatched;
    spec.mode = Mode::ImportanceSampled;
    spec.trials = 400'000;
    const double exact = pExploitableUniform(spec.params);
    const McEstimate mc = runMc(spec);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9);
}

TEST(MonteCarloBatched, ImportanceSamplingReachesRareTail)
{
    // Production parameters, restricted pointers: the per-trial hit
    // probability is ~4e-14.  The direct estimator at 400k trials is
    // blind to it; the importance-sampled one resolves it to a few
    // percent in the same budget.
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    const double exact = pExploitableExactZeros(params, 2);
    ASSERT_GT(exact, 0.0);
    ASSERT_LT(exact, 1e-9);

    McSpec direct;
    direct.params = params;
    direct.sampler = Sampler::FixedZerosBatched;
    direct.zeros = 2;
    direct.trials = 400'000;
    EXPECT_EQ(runMc(direct).mean, 0.0); // blind to the tail

    McSpec tilted = direct;
    tilted.mode = Mode::ImportanceSampled;
    const McEstimate mc = runMc(tilted);
    EXPECT_GT(mc.mean, 0.0);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr);
    EXPECT_LT(mc.stderr, exact); // genuinely resolved, not one fluke
    EXPECT_GT(mc.ess, 100.0);
}

TEST(SecurityModel, ClosedFormHelpersMatchDefinitions)
{
    const SystemParams params = boostedParams();
    const unsigned n = params.indicatorBits();
    const double p_up = params.errors.upFlipProbTrue();
    const double p_down = params.errors.downFlipProbTrue();
    for (unsigned zeros : {1u, 2u, n}) {
        const double expect =
            std::pow(p_up, zeros) *
            std::pow(1.0 - p_down, n - zeros);
        EXPECT_NEAR(pExploitableExactZeros(params, zeros), expect,
                    expect * 1e-12)
            << "zeros=" << zeros;
    }
    // The uniform closed form averages the exactly-z terms over the
    // nonzero pointer values below the mark.
    double total = 0.0;
    for (unsigned z = 1; z <= n; ++z)
        total += choose(n, z) * pExploitableExactZeros(params, z);
    const double expect =
        total / (static_cast<double>(1ULL << n) - 1.0);
    EXPECT_NEAR(pExploitableUniform(params), expect, expect * 1e-12);
}

TEST(Capacity, WorstCase078Percent)
{
    // Section 6.2: worst case 0.78% for 8 GiB with a 64 MiB anti
    // stripe wasted (alternating 512 x 128 KiB rows).
    const double fraction =
        worstCaseLossFraction(512, 128 * KiB, 8 * GiB, 32 * MiB);
    EXPECT_NEAR(fraction, 0.0078, 0.0001);
}

TEST(Capacity, AnalyticMatchesLayoutWalk)
{
    // True-first alternating 512 over 8 GiB: top stripe is anti
    // (65536 rows -> 128 stripes, stripe 127 odd -> anti).
    const dram::CellTypeMap map = dram::CellTypeMap::alternating(512);
    const CapacityLoss loss =
        analyzeCapacityLoss(map, 8 * GiB, 32 * MiB);
    EXPECT_EQ(loss.skippedAntiBytes, 64 * MiB);
    EXPECT_NEAR(loss.lossFraction(8 * GiB), 0.0078, 0.0001);
    EXPECT_EQ(loss.ptpBytes, 32 * MiB);

    // Best case: true cells on top -> zero loss.
    const dram::CellTypeMap lucky =
        dram::CellTypeMap::alternating(512, /*true_first=*/false);
    const CapacityLoss no_loss =
        analyzeCapacityLoss(lucky, 8 * GiB, 32 * MiB);
    EXPECT_EQ(no_loss.skippedAntiBytes, 0u);
}

TEST(Capacity, MostlyTrueModulesLoseLess)
{
    const dram::CellTypeMap ratio = dram::CellTypeMap::mostlyTrue(1000);
    const CapacityLoss loss =
        analyzeCapacityLoss(ratio, 8 * GiB, 32 * MiB);
    EXPECT_LE(loss.skippedAntiBytes, 128 * KiB);
}

} // namespace
} // namespace ctamem::model
