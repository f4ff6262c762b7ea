"""Unit tests for the negative-binomial defect-count distribution."""

import math

import pytest

from repro.distributions import DistributionError, NegativeBinomialDefectDistribution


class TestConstruction:
    def test_rejects_non_positive_mean(self):
        with pytest.raises(DistributionError):
            NegativeBinomialDefectDistribution(mean=0.0, clustering=1.0)
        with pytest.raises(DistributionError):
            NegativeBinomialDefectDistribution(mean=-1.0, clustering=1.0)

    def test_rejects_non_positive_clustering(self):
        with pytest.raises(DistributionError):
            NegativeBinomialDefectDistribution(mean=1.0, clustering=0.0)

    def test_rejects_nan_parameters(self):
        with pytest.raises(DistributionError):
            NegativeBinomialDefectDistribution(mean=float("nan"), clustering=1.0)
        with pytest.raises(DistributionError):
            NegativeBinomialDefectDistribution(mean=1.0, clustering=float("inf"))


class TestPmf:
    def test_pmf_matches_closed_form_for_k0(self):
        # Q_0 = (1 + lambda/alpha)^(-alpha)
        dist = NegativeBinomialDefectDistribution(mean=2.0, clustering=0.5)
        expected = (1.0 + 2.0 / 0.5) ** (-0.5)
        assert dist.pmf(0) == pytest.approx(expected, rel=1e-12)

    def test_pmf_matches_paper_formula(self):
        lam, alpha = 1.7, 0.8
        dist = NegativeBinomialDefectDistribution(mean=lam, clustering=alpha)
        for k in range(12):
            expected = (
                math.gamma(alpha + k)
                / (math.factorial(k) * math.gamma(alpha))
                * (lam / alpha) ** k
                / (1.0 + lam / alpha) ** (alpha + k)
            )
            assert dist.pmf(k) == pytest.approx(expected, rel=1e-10)

    def test_pmf_is_zero_for_negative_k(self):
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=1.0)
        assert dist.pmf(-1) == 0.0

    def test_pmf_sums_to_one(self):
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=0.25)
        total = sum(dist.pmf(k) for k in range(4000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_and_variance(self):
        dist = NegativeBinomialDefectDistribution(mean=3.0, clustering=2.0)
        mean = sum(k * dist.pmf(k) for k in range(500))
        second = sum(k * k * dist.pmf(k) for k in range(500))
        assert mean == pytest.approx(dist.mean(), rel=1e-6)
        assert second - mean * mean == pytest.approx(dist.variance(), rel=1e-5)

    def test_clustering_increases_zero_defect_probability(self):
        # stronger clustering (smaller alpha) concentrates defects on few dies,
        # so the probability of a defect-free die increases
        weak = NegativeBinomialDefectDistribution(mean=1.0, clustering=10.0)
        strong = NegativeBinomialDefectDistribution(mean=1.0, clustering=0.1)
        assert strong.pmf(0) > weak.pmf(0)


class TestThinning:
    def test_thinning_keeps_family_and_clustering(self):
        dist = NegativeBinomialDefectDistribution(mean=2.0, clustering=0.7)
        thinned = dist.thinned(0.5)
        assert isinstance(thinned, NegativeBinomialDefectDistribution)
        assert thinned.clustering == pytest.approx(0.7)
        assert thinned.mean() == pytest.approx(1.0)

    def test_thinning_matches_binomial_mixture(self):
        # Q'_k = sum_m Q_m C(m,k) p^k (1-p)^(m-k), the generic eq. (1)
        dist = NegativeBinomialDefectDistribution(mean=1.5, clustering=1.2)
        p = 0.4
        thinned = dist.thinned(p)
        for k in range(8):
            expected = sum(
                dist.pmf(m) * math.comb(m, k) * p ** k * (1 - p) ** (m - k)
                for m in range(k, 200)
            )
            assert thinned.pmf(k) == pytest.approx(expected, rel=1e-8)

    def test_thinning_with_probability_one_is_identity(self):
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=2.0)
        thinned = dist.thinned(1.0)
        for k in range(10):
            assert thinned.pmf(k) == pytest.approx(dist.pmf(k))

    def test_thinning_rejects_invalid_probability(self):
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=2.0)
        with pytest.raises(DistributionError):
            dist.thinned(0.0)
        with pytest.raises(DistributionError):
            dist.thinned(1.5)

    def test_thinned_parameters_are_exact(self):
        dist = NegativeBinomialDefectDistribution(mean=2.7, clustering=0.3)
        thinned = dist.thinned(0.37)
        assert thinned.mean() == 2.7 * 0.37
        assert thinned.clustering == 0.3

    def test_thinned_mean_that_underflows_to_zero_is_rejected(self):
        dist = NegativeBinomialDefectDistribution(mean=5e-324, clustering=1.0)
        assert 5e-324 * 0.5 == 0.0
        with pytest.raises(DistributionError, match="thinned mean"):
            dist.thinned(0.5)

    def test_thinned_mean_whose_ratio_to_alpha_underflows_is_rejected(self):
        # the thinned mean is positive, but the pmf takes log(mean / alpha)
        dist = NegativeBinomialDefectDistribution(mean=1e-323, clustering=4.0)
        assert 1e-323 * 0.5 > 0.0 and 1e-323 * 0.5 / 4.0 == 0.0
        with pytest.raises(DistributionError, match="thinned mean"):
            dist.thinned(0.5)


def bits(values):
    return [float(value).hex() for value in values]


class TestTermTable:
    def test_table_stays_bounded_and_every_row_is_bit_equal(self):
        from repro.distributions.negative_binomial import TERM_TABLE_SIZE, _k_terms

        alphas = [0.05 + 0.37 * index for index in range(TERM_TABLE_SIZE + 16)]
        for truncation in (0, 5):
            for alpha in alphas:
                dist = NegativeBinomialDefectDistribution(mean=1.3, clustering=alpha)
                assert bits(dist.pmf_vector(truncation)) == bits(
                    dist.pmf(k) for k in range(truncation + 1)
                )
                assert _k_terms.cache_info().currsize <= TERM_TABLE_SIZE
        # the first rows were evicted; made again, they are the same floats
        for alpha in alphas[:4]:
            dist = NegativeBinomialDefectDistribution(mean=0.4, clustering=alpha)
            assert bits(dist.pmf_vector(5)) == bits(dist.pmf(k) for k in range(6))

    def test_rows_are_keyed_on_the_truncation_too(self):
        dist = NegativeBinomialDefectDistribution(mean=2.2, clustering=4.0)
        longer = dist.pmf_vector(9)
        assert bits(dist.pmf_vector(3)) == bits(longer[:4])
        assert len(dist.pmf_vector(3)) == 4


class TestTruncation:
    def test_truncation_level_meets_error_budget(self):
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=4.0)
        for epsilon in (1e-2, 1e-3, 1e-6):
            level = dist.truncation_level(epsilon)
            assert dist.tail(level) <= epsilon
            if level > 0:
                assert dist.tail(level - 1) > epsilon

    def test_truncation_matches_paper_operating_points(self):
        # the calibration documented in DESIGN.md: alpha=4, eps=1e-3
        assert NegativeBinomialDefectDistribution(1.0, 4.0).truncation_level(1e-3) == 6
        assert NegativeBinomialDefectDistribution(2.0, 4.0).truncation_level(1e-3) == 10

    def test_truncation_rejects_bad_epsilon(self):
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=4.0)
        with pytest.raises(DistributionError):
            dist.truncation_level(0.0)
        with pytest.raises(DistributionError):
            dist.truncation_level(1.5)

    def test_cdf_tail_complementarity(self):
        dist = NegativeBinomialDefectDistribution(mean=2.0, clustering=1.0)
        for k in range(10):
            assert dist.cdf(k) + dist.tail(k) == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_sampling_mean_is_close(self):
        import random

        dist = NegativeBinomialDefectDistribution(mean=2.0, clustering=4.0)
        rng = random.Random(7)
        samples = dist.sample(rng, 4000)
        average = sum(samples) / len(samples)
        assert average == pytest.approx(2.0, abs=0.15)
