import numpy as np
import pytest

from dmfgp.benchmarks import (
    RHO_TRUE,
    BenchmarkSpec,
    candidate_points,
    forrester_truth,
    generate,
    metrics,
    step_truth,
    true_h_sample,
)
from dmfgp.mfgp import PosteriorPrediction, nll
from dmfgp.kernel import KernelParams
from dmfgp import feature_map as fm
from dmfgp.mfgp import Dataset, ModelParams


class TestBenchmarkSpec:
    def test_defaults_per_kind(self):
        assert (BenchmarkSpec("step").n1, BenchmarkSpec("step").n2) == (45, 5)
        assert (BenchmarkSpec("forrester_jump").n1, BenchmarkSpec("forrester_jump").n2) == (50, 5)
        assert (BenchmarkSpec("prior_sample").n1, BenchmarkSpec("prior_sample").n2) == (50, 15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("quadratic")

    def test_too_many_points(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("step", n1=150, n2=100)

    @pytest.mark.parametrize(
        "kwargs", [{"n1": 0}, {"n2": 0}, {"n1": -5}, {"noise_sd": -1.0}, {"noise_sd": float("nan")},
                   {"noise_sd": float("inf")}]
    )
    def test_rejects_invalid_sizes_and_noise(self, kwargs):
        with pytest.raises(ValueError):
            BenchmarkSpec("step", **kwargs)

    def test_accepts_zero_noise(self):
        assert BenchmarkSpec("step", noise_sd=0.0).noise_sd == 0.0


class TestCandidatePoints:
    @pytest.mark.parametrize("kind,lo,mid_lo,mid_hi,hi", [
        ("step", 0.0, 0.8, 1.2, 2.0),
        ("forrester_jump", 0.0, 0.4, 0.6, 1.0),
        ("prior_sample", 0.0, 0.4, 0.6, 1.0),
    ])
    def test_partition_counts(self, kind, lo, mid_lo, mid_hi, hi):
        pts = candidate_points(kind, seed=0)
        assert pts.shape == (200,)
        assert np.all((pts >= lo) & (pts <= hi))
        assert np.sum((pts >= mid_lo) & (pts <= mid_hi)) == 100

    def test_deterministic(self):
        np.testing.assert_array_equal(candidate_points("step", 5), candidate_points("step", 5))

    def test_seed_changes_points(self):
        assert not np.allclose(candidate_points("step", 0), candidate_points("step", 1))


class TestStepTruth:
    def test_values(self):
        assert step_truth(0.5, "high") == -1.0
        assert step_truth(1.5, "high") == 2.0
        assert step_truth(0.5, "low") == 0.0
        assert step_truth(1.5, "low") == 1.0

    def test_boundary_uses_lower_branch(self):
        assert step_truth(1.0, "high") == -1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            step_truth(2.5, "high")

    def test_unknown_fidelity(self):
        with pytest.raises(ValueError):
            step_truth(0.5, "medium")


class TestForresterTruth:
    def test_low_at_zero(self):
        assert forrester_truth(0.0, "low") == pytest.approx(2 * np.sin(-4) - 10, rel=1e-12)

    def test_low_at_one(self):
        assert forrester_truth(1.0, "low") == pytest.approx(3 + 8 * np.sin(8), rel=1e-12)

    def test_high_at_one(self):
        low1 = 3 + 8 * np.sin(8)
        assert forrester_truth(1.0, "high") == pytest.approx(4 + 2 * low1, rel=1e-12)

    def test_jump_sizes(self):
        eps = 1e-9
        lo_jump = forrester_truth(0.5 + eps, "low") - forrester_truth(0.5, "low")
        hi_jump = forrester_truth(0.5 + eps, "high") - forrester_truth(0.5, "high")
        assert lo_jump == pytest.approx(3.0, abs=1e-6)
        # high inherits twice the low jump plus its own offset
        assert hi_jump == pytest.approx(10.0, abs=1e-6)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0, 1, 1000):
            low = 0.5 * (6 * x - 2) ** 2 * np.sin(12 * x - 4) + 10 * (x - 0.5) - 5
            if x > 0.5:
                low += 3.0
            high = 2 * low - 20 * x + 20 + (4.0 if x > 0.5 else 0.0)
            assert forrester_truth(x, "low") == pytest.approx(low, abs=1e-12)
            assert forrester_truth(x, "high") == pytest.approx(high, abs=1e-12)


class TestTrueHSample:
    def test_lower_branch(self):
        np.testing.assert_allclose(true_h_sample(np.array([0.25])), [[0.25, 0.25]])

    def test_upper_branch(self):
        np.testing.assert_allclose(true_h_sample(np.array([0.75])), [[0.75, 1.5]])

    def test_boundary_tie_breaks_low(self):
        np.testing.assert_allclose(true_h_sample(np.array([0.5])), [[0.5, 0.5]])

    def test_vectorized(self):
        out = true_h_sample(np.array([0.1, 0.9]))
        np.testing.assert_allclose(out, [[0.1, 0.1], [0.9, 1.8]])


class TestGenerate:
    @pytest.mark.parametrize("kind", ["step", "forrester_jump", "prior_sample"])
    def test_sizes_and_grid(self, kind):
        data, grid, truth = generate(BenchmarkSpec(kind, seed=0))
        n1, n2 = BenchmarkSpec(kind).n1, BenchmarkSpec(kind).n2
        assert data.n1 == n1 and data.n2 == n2
        assert grid.shape == (200, 1) and truth.shape == (200,)

    @pytest.mark.parametrize("kind", ["step", "forrester_jump", "prior_sample"])
    def test_deterministic(self, kind):
        a = generate(BenchmarkSpec(kind, seed=3))
        b = generate(BenchmarkSpec(kind, seed=3))
        np.testing.assert_array_equal(a[0].f, b[0].f)
        np.testing.assert_array_equal(a[2], b[2])

    def test_train_points_disjoint(self):
        data, _, _ = generate(BenchmarkSpec("step", seed=1))
        shared = set(data.x1.ravel()) & set(data.x2.ravel())
        assert not shared

    def test_step_noise_level(self):
        # noise N(0, 0.01^2) around piecewise-constant truth
        data, _, _ = generate(BenchmarkSpec("step", seed=2))
        resid = data.f1 - step_truth(data.x1.ravel(), "low")
        assert np.max(np.abs(resid)) < 0.05
        assert np.std(resid) > 1e-4

    def test_forrester_noise_free(self):
        data, _, _ = generate(BenchmarkSpec("forrester_jump", seed=2))
        np.testing.assert_array_equal(data.f1, forrester_truth(data.x1.ravel(), "low"))
        np.testing.assert_array_equal(data.f2, forrester_truth(data.x2.ravel(), "high"))

    def test_prior_sample_self_consistent(self):
        # nll at the generating parameters is finite and reproducible
        spec = BenchmarkSpec("prior_sample", seed=4)
        data, _, _ = generate(spec)
        arch = [fm.LayerSpec(1, 2, "identity")]
        # the generating map is piecewise; the nll check only needs valid params
        fmap = fm.FeatureMapParams([np.array([[1.0], [1.0]])], [np.zeros(2)])
        unit = KernelParams(0.0, np.zeros(2))
        params = ModelParams(RHO_TRUE, unit, unit, arch, fmap)
        v1 = nll(params, data)
        data2, _, _ = generate(spec)
        v2 = nll(params, data2)
        assert np.isfinite(v1) and v1 == v2

    def test_custom_sizes(self):
        data, _, _ = generate(BenchmarkSpec("step", seed=0, n1=20, n2=4))
        assert data.n1 == 20 and data.n2 == 4


class TestMetrics:
    def test_perfect_prediction(self):
        pred = PosteriorPrediction(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        m = metrics(pred, [1.0, 2.0])
        assert m.rmse == 0.0
        assert m.coverage == 1.0

    def test_rmse_closed_form(self):
        pred = PosteriorPrediction(np.zeros(2), np.ones(2))
        m = metrics(pred, [3.0, 4.0])
        assert m.rmse == pytest.approx(np.sqrt(25 / 2))

    def test_coverage_counts_two_sigma(self):
        pred = PosteriorPrediction(np.zeros(4), np.ones(4))
        m = metrics(pred, [0.0, 1.9, 2.1, -5.0])
        assert m.coverage == pytest.approx(0.5)

    def test_mnlpd_standard_normal(self):
        pred = PosteriorPrediction(np.zeros(1), np.ones(1))
        m = metrics(pred, [0.0])
        assert m.mnlpd == pytest.approx(0.5 * np.log(2 * np.pi))

    def test_length_mismatch(self):
        pred = PosteriorPrediction(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            metrics(pred, [0.0])
