import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenet.models import (FhnChemicalParams, FhnElectricalParams,
                               ModelDefinitionError, NetworkModel, ScalingRule,
                               SeparableParams, build_separable_1d, scaling_gamma)

from .oracles import family_callables

FIG1 = FhnElectricalParams(f_coeffs=(-1.0, 5.0, -4.0, 4.0), a=0.005, b=6.0,
                           g=1.0, sigma=1.0)
FIG2A = FhnChemicalParams(f_coeffs=(-1.0, 1.3, -0.3, 0.0), a=0.4, b=1.5, c=1.0,
                          tau=1.0, alpha_gain=1.0, alpha_threshold=1.0,
                          alpha_slope=0.2, E_E=3.0, E_I=-1.0,
                          g_EE=0.3, g_EI=2.0, g_IE=1.0, g_II=10.0, sigma=1.0)

# the drift and pairwise interaction each family's fhn_constants() and
# source_maps() describe
FIG1_DRIFT, FIG1_INTERACTION = family_callables(FIG1)
FIG2A_DRIFT, FIG2A_INTERACTION = family_callables(FIG2A)


def horner_oracle(coeffs, x):
    total = 0.0
    for c in coeffs:
        total = total * x + c
    return total


class TestScaling:
    def test_linear_figure_value(self):
        assert scaling_gamma(ScalingRule("linear"), 300) == 300.0

    def test_sqrt(self):
        assert scaling_gamma(ScalingRule("sqrt"), 300) == pytest.approx(17.32051, abs=1e-5)

    def test_scaled_linear(self):
        assert scaling_gamma(ScalingRule("scaled_linear", 0.1), 600) == pytest.approx(60.0)

    def test_constant(self):
        assert scaling_gamma(ScalingRule("constant", 7.5), 10 ** 6) == 7.5

    @given(st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=50, derandomize=True)
    def test_linear_ratio_exact(self, n):
        assert scaling_gamma(ScalingRule("linear"), n) / n == 1.0

    @pytest.mark.parametrize("rule", [ScalingRule("linear"), ScalingRule("sqrt"),
                                      ScalingRule("scaled_linear", 0.3)])
    def test_strictly_increasing(self, rule):
        vals = [scaling_gamma(rule, n) for n in (1, 2, 10, 100, 10000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_rules_rejected(self):
        with pytest.raises(ModelDefinitionError):
            ScalingRule("cubic")
        with pytest.raises(ModelDefinitionError):
            ScalingRule("constant", -1.0)
        with pytest.raises(ModelDefinitionError):
            scaling_gamma(ScalingRule("linear"), 0)


class TestElectricalModel:
    def test_drift_at_origin(self):
        np.testing.assert_allclose(FIG1_DRIFT(0, [0.0, 0.0]), [4.0, 0.0])

    def test_drift_recovery_slope(self):
        np.testing.assert_allclose(FIG1_DRIFT(0, [1.0, 0.0]), [4.0, 0.03])

    def test_drift_matches_horner_oracle(self):
        for x, y in [(2.0, 1.0), (-1.5, 0.3), (3.7, -2.0)]:
            expect = horner_oracle(FIG1.f_coeffs, x) - y
            got = FIG1_DRIFT(0, [x, y])
            assert got[0] == pytest.approx(expect, rel=1e-12)
            assert got[1] == pytest.approx(FIG1.a * (FIG1.b * x - y), rel=1e-12)

    def test_structure(self):
        model = NetworkModel(FIG1, n=300)
        assert model.n_populations == 1
        assert model.dim == 2
        assert model.coupling[0, 0] == 1.0
        assert model.params.sigma == 1.0
        states = np.zeros((300, 2))
        (rows,) = model.population_rows(states)
        assert rows.shape == (300, 2) and rows.base is states

    def test_interaction_voltage_difference(self):
        np.testing.assert_allclose(
            FIG1_INTERACTION(0, 0, [1.0, 9.0], [3.0, -4.0]), [2.0, 0.0])

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, derandomize=True)
    def test_interaction_vanishes_on_diagonal(self, x, y):
        np.testing.assert_array_equal(
            FIG1_INTERACTION(0, 0, [x, y], [x, y]), [0.0, 0.0])

    def test_zero_coupling_allowed(self):
        params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 0.0, 1.0)
        model = NetworkModel(params, n=300)
        assert model.coupling[0, 0] == 0.0

    def test_invariants_rejected(self):
        with pytest.raises(ModelDefinitionError):
            FhnElectricalParams((1.0, 0.0, 0.0, 0.0), 0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ModelDefinitionError):
            FhnElectricalParams((-1.0, 0.0, 0.0, 0.0), -0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ModelDefinitionError):
            FhnElectricalParams((-1.0, 0.0, 0.0, 0.0), 0.1, 1.0, -1.0, 1.0)


class TestChemicalModel:
    def test_signed_matrix_figure_values(self):
        model = NetworkModel(FIG2A, n=300)
        np.testing.assert_allclose(model.ghat, [[0.3, 2.0], [-1.0, -10.0]])

    def test_coupling_is_target_major_transpose(self):
        model = NetworkModel(FIG2A, n=300)
        np.testing.assert_allclose(model.coupling, model.ghat.T)

    @given(st.tuples(*[st.floats(0, 50) for _ in range(4)]))
    @settings(max_examples=50, derandomize=True)
    def test_source_sign_structure(self, mags):
        gee, gei, gie, gii = mags
        params = FhnChemicalParams((-1.0, 1.3, -0.3, 0.0), 0.4, 1.5, 1.0, 1.0,
                                   1.0, 1.0, 0.2, 3.0, -1.0, gee, gei, gie, gii, 1.0)
        model = NetworkModel(params, n=300)
        # source-E column of the target-major matrix is nonnegative,
        # source-I column nonpositive
        assert np.all(model.coupling[:, 0] >= 0)
        assert np.all(model.coupling[:, 1] <= 0)

    def test_interaction_term(self):
        x = np.array([0.5, 1.0, 0.2])
        y = np.array([-2.0, 0.0, 0.8])
        # source population E: (x0 - E_E) * s_source
        np.testing.assert_allclose(FIG2A_INTERACTION(1, 0, x, y),
                                   [(0.5 - 3.0) * 0.8, 0.0, 0.0])
        # source population I
        np.testing.assert_allclose(FIG2A_INTERACTION(0, 1, x, y),
                                   [(0.5 - (-1.0)) * 0.8, 0.0, 0.0])

    def test_uncoupled_when_zero(self):
        params = FhnChemicalParams((-1.0, 1.3, -0.3, 0.0), 0.4, 1.5, 1.0, 1.0,
                                   1.0, 1.0, 0.2, 3.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        model = NetworkModel(params, n=300)
        assert np.all(model.coupling == 0.0)

    def test_s_equation_decay(self):
        # at s = 1 with alpha(x) ~= 0 the synapse decays at rate 1/tau
        d = FIG2A_DRIFT(0, [-50.0, 0.0, 1.0])
        assert d[2] == pytest.approx(-1.0 / FIG2A.tau, abs=1e-9)

    def test_invariants_rejected(self):
        with pytest.raises(ModelDefinitionError):
            FhnChemicalParams((-1.0, 0, 0, 0), 0.4, 1.5, 1.0, 0.0, 1.0, 1.0, 0.2,
                              3.0, -1.0, 1, 1, 1, 1, 1.0)
        with pytest.raises(ModelDefinitionError):
            FhnChemicalParams((-1.0, 0, 0, 0), 0.4, 1.5, 1.0, 1.0, 1.0, 1.0, 0.2,
                              2.0, 2.0, 1, 1, 1, 1, 1.0)
        with pytest.raises(ModelDefinitionError):
            FhnChemicalParams((-1.0, 0, 0, 0), 0.4, 1.5, 1.0, 1.0, 1.0, 1.0, 0.2,
                              3.0, -1.0, -0.1, 1, 1, 1, 1.0)


class TestPopulationMeans:
    @pytest.mark.parametrize("params", [FIG1, FIG2A], ids=["d2", "d3"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 4500])
    def test_view_mean_equals_copy_mean(self, params, n):
        # the states start 0 to 7 rows into their buffer, so the population
        # views start at every 16-byte (d = 2) or 8-byte (d = 3) offset from
        # a 64-byte line; averaging a view in place gives the bits of
        # averaging a contiguous copy of it
        model = NetworkModel(params, n=n)
        P, d = model.n_populations, model.dim
        o = np.arange(P + 1) * n
        buf = np.random.default_rng(n).normal(size=(7 + P * n, d))
        lines = set()
        for row0 in range(8):
            states = buf[row0:row0 + P * n]
            lines.update(states[o[p]:].ctypes.data % 64 for p in range(P))
            copies = np.stack([states[o[p]:o[p + 1]].copy().mean(axis=0) for p in range(P)])
            means = model.population_means(states)
            assert means.shape == (P, d)
            assert means.tobytes() == copies.tobytes()
        assert len(lines) >= 4


class TestSeparableModel:
    def test_alpha_zero_at_reference(self):
        m = build_separable_1d(0.1, SeparableParams(E=0.0))
        assert m.alpha(0.0) == 0.0

    def test_f_zero_at_one(self):
        m = build_separable_1d(0.1)
        assert m.f(1.0) == 0.0

    def test_beta_bounds_grid_scan(self):
        m = build_separable_1d(0.1, SeparableParams(beta0=0.5, beta1=1.0))
        ys = np.linspace(-50, 50, 4001)
        vals = m.beta(ys)
        assert vals.min() >= 0.5
        assert vals.max() <= 1.5

    def test_beta0_nonpositive_rejected(self):
        with pytest.raises(ModelDefinitionError):
            SeparableParams(beta0=0.0)

    def test_epsilon_range(self):
        with pytest.raises(ModelDefinitionError):
            build_separable_1d(0.0)
        with pytest.raises(ModelDefinitionError):
            build_separable_1d(1.5)


class TestValidateHypotheses:
    """The structural hypotheses of the separable model, scanned on a grid
    for the default model."""

    XS = np.linspace(-10.0, 10.0, 2001)

    @staticmethod
    def slope(fn, xs, h=1e-4):
        return (fn(xs + h) - fn(xs - h)) / (2 * h)

    def test_default_drift_bound_fitted_at_one(self):
        # f'(x) <= C0 (1 - x^2) holds with C0 = 1 and no smaller C0 (equality
        # at x = 0)
        m = build_separable_1d(0.1)
        fp = self.slope(m.f, self.XS)
        w = 1.0 - self.XS ** 2
        assert np.all(fp <= w + 1e-6)
        inner = w > 1e-3
        assert np.max(fp[inner] / w[inner]) == pytest.approx(1.0, abs=2e-3)

    def test_default_beta_floor(self):
        m = build_separable_1d(0.1, SeparableParams(beta0=0.5, beta1=1.0))
        assert m.beta_floor == 0.5
        bv = m.beta(self.XS)
        # the scan minimum sits at the domain edge, just above the infimum beta0
        assert 0.5 <= bv.min() <= 0.5 + 1e-3
        assert bv.max() <= 1.5

    def test_default_slopes(self):
        m = build_separable_1d(0.1)
        ends = np.array([self.XS[0], self.XS[-1]])
        np.testing.assert_allclose(self.slope(m.alpha, ends), [1.0, 1.0], atol=1e-6)

    def test_bv_positivity_violated_with_witness(self):
        # bounded beta with sign-changing alpha cannot satisfy the uniform
        # positivity of beta' * alpha; the scan must find a witness
        m = build_separable_1d(0.1)
        g2 = self.slope(m.beta, self.XS) * m.alpha(self.XS)
        assert g2.min() <= 0.0
        witness = self.XS[np.argmin(g2)]
        h = 1e-5
        beta_prime = (m.beta(witness + h) - m.beta(witness - h)) / (2 * h)
        assert beta_prime * m.alpha(witness) <= 0.0
