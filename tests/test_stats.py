import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

from balancenet.stats import histogram

from .oracles import cluster_split


class TestHistogram:
    def test_single_bin_holds_all(self):
        centers, counts = histogram(np.full(10, 0.5), 0.0, 1.0, 1)
        assert counts.tolist() == [10]
        assert centers.tolist() == [0.5]

    def test_uniform_centers_equal_counts(self):
        centers, counts = histogram(np.array([0.125, 0.375, 0.625, 0.875]), 0.0, 1.0, 4)
        assert counts.tolist() == [1, 1, 1, 1]
        assert centers.tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_out_of_range_clamped_and_reported(self):
        _, counts = histogram(np.array([-5.0, 0.4, 99.0]), 0.0, 1.0, 2)
        assert counts.sum() == 3
        assert counts.tolist() == [2, 1]

    @given(st.integers(0, 2 ** 31), st.integers(1, 50))
    @settings(max_examples=40, derandomize=True)
    def test_counts_sum_to_sample_count(self, seed, bins):
        s = np.random.default_rng(seed).normal(size=201) * 3
        _, counts = histogram(s, -1.0, 1.0, bins)
        assert counts.sum() == 201

    def test_gaussian_chi_square_at_one_percent(self):
        n, bins, lo, hi = 10 ** 5, 40, -4.0, 4.0
        s = np.random.default_rng(7).standard_normal(n)
        _, counts = histogram(s, lo, hi, bins)
        edges = np.linspace(lo, hi, bins + 1)
        masses = np.diff(norm.cdf(edges))
        # clamped samples land in the edge bins: fold the tails in
        masses[0] += norm.cdf(lo)
        masses[-1] += norm.sf(hi)
        expected = n * masses
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, bins - 1)


class TestClusterSplit:
    def test_all_above(self):
        above, below, gap = cluster_split(np.array([2.0, 3.0, 4.0]), 1.0)
        assert (above, below) == (1.0, 0.0)
        assert gap == 1.0

    def test_symmetric(self):
        above, below, gap = cluster_split(np.array([1.0, -1.0, 1.0, -1.0]), 0.0)
        assert (above, below) == (0.5, 0.5)
        assert gap == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_split(np.array([]), 0.0)


class TestDispersionFig1Integration:
    def test_fig1_series_collapses_before_t01(self):
        # contraction at rate ~gamma*g drives the voltage spread from 5
        # below 0.1 well before t = 0.1
        from balancenet.models import FhnElectricalParams, NetworkModel
        from balancenet.network import CoordinateIC, RecordSpec, simulate
        params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 1.0, 1.0)
        model = NetworkModel(params, n=300)
        init = ((CoordinateIC("normal", 1.0, 5.0), CoordinateIC("normal", 1.5, 5.0)),)
        run = simulate(model, init, 0.1, 1e-4, 31, RecordSpec(stride=5))
        crossed = run.times[run.stds[0][:, 0] < 0.1]
        assert crossed.size and crossed[0] < 0.1
