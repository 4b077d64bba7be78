import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import domtest.limitdist as limitdist
from domtest import (
    BridgePathConfig,
    LimitVarianceInputs,
    limit_quantiles,
    limit_variance,
    simulate_bridge_functional,
)
from oracles import bridge_functional_reference, bridge_paths, empirical_quantile

# analytic mean of the positive-part bridge integral
BRIDGE_MEAN = math.pi / (8.0 * math.sqrt(2.0 * math.pi))


def sha256(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestBridgePaths:
    def test_endpoints_pinned_exactly(self):
        paths = bridge_paths(np.random.default_rng(51), 200, 64)
        assert_array_equal(paths[:, 0], np.zeros(200))
        assert_array_equal(paths[:, -1], np.zeros(200))

    def test_marginal_variance(self):
        # Var B(u) = u(1-u); check at midpoint with many paths
        g = 10
        paths = bridge_paths(np.random.default_rng(52), 200_000, g)
        var = paths[:, g // 2].var()
        assert_allclose(var, 0.25, atol=0.005)

    def test_golden_bytes(self):
        # recorded from the whole-matrix implementation that the row-block kernel replaced
        paths = bridge_paths(np.random.default_rng(51), 200, 64)
        assert sha256(paths) == "64978e4b9234cbb8f7e6986da02e6f7f00835c41061ad20394fd043793440504"

    def test_zero_paths(self):
        assert bridge_paths(np.random.default_rng(0), 0, 5).shape == (0, 6)

    @pytest.mark.parametrize(
        "num_paths, grid_size, name",
        [(3, 0, "grid_size"), (3, -2, "grid_size"), (-1, 5, "num_paths"), (2.5, 5, "num_paths"),
         (3, 2.5, "grid_size"), (True, 5, "num_paths")],
    )
    def test_bad_sizes_name_the_argument(self, num_paths, grid_size, name):
        with pytest.raises(ValueError, match=name):
            bridge_paths(np.random.default_rng(0), num_paths, grid_size)


class TestBridgeFunctional:
    # sha256 of the samples' bytes, recorded from the whole-matrix implementation
    # that the row-block kernel replaced
    @pytest.mark.parametrize(
        "num_paths, grid_size, seed, digest",
        [
            (20000, 1000, 7, "59e234a1cd43d763b8d4716dc625d21d39162cd36236a4029976d500c439934d"),
            (2049, 1000, 5, "3e103ed5ced21eca177eb5b74c510cc5749a807b9505e9ea89f9ca7ef86d836b"),
            (5000, 37, 0, "778f6572bdd3cc73e937a8f483602e98d12b20d074091144b77c411db815971f"),
            (3000, 2, 11, "7f14bb06f52bd3ec9bbf53f33de2a14a0605db1620eb130b7da7c271a3225b98"),
            (1, 2, 3, "707d23aac6350832b39607a2c0859a5b8a75ea6e570b4882af9ac1229de482df"),
        ],
    )
    def test_golden_bytes(self, num_paths, grid_size, seed, digest):
        config = BridgePathConfig(num_paths=num_paths, grid_size=grid_size, seed=seed)
        assert sha256(simulate_bridge_functional(config)) == digest

    # one row; several row blocks and two seed chunks; a partial last block
    @pytest.mark.parametrize("num_paths, grid_size, seed", [(1, 2, 0), (2100, 100, 1), (700, 1000, 2)])
    def test_matches_whole_matrix_reference(self, num_paths, grid_size, seed):
        config = BridgePathConfig(num_paths=num_paths, grid_size=grid_size, seed=seed)
        assert_array_equal(
            simulate_bridge_functional(config),
            bridge_functional_reference(num_paths, grid_size, seed),
        )

    # one chunk; two; ten; a partial last chunk
    @pytest.mark.parametrize(
        "num_paths, grid_size", [(100, 50), (4096, 20), (20480, 5), (4103, 33)]
    )
    def test_bytes_do_not_depend_on_thread_count(self, monkeypatch, num_paths, grid_size):
        want = bridge_functional_reference(num_paths, grid_size, 8).view(np.int64)
        config = BridgePathConfig(num_paths=num_paths, grid_size=grid_size, seed=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared write would show
        try:
            for threads in (1, 2, 3):
                monkeypatch.setattr(limitdist, "_THREADS", threads)
                assert_array_equal(simulate_bridge_functional(config).view(np.int64), want)
        finally:
            sys.setswitchinterval(interval)

    # chunk 0 runs on the calling thread, chunks 1 and 2 on the others
    @pytest.mark.parametrize("threads, bad_chunk", [(2, 0), (2, 1), (3, 2)])
    def test_worker_error_reaches_the_caller(self, monkeypatch, threads, bad_chunk):
        # a 10-point grid walks each chunk in one block, so the chunk's fresh state marks it
        child = np.random.SeedSequence(0).spawn(3)[bad_chunk]
        bad_state = np.random.default_rng(child).bit_generator.state

        def failing_walk(rng, *args):
            if rng.bit_generator.state == bad_state:
                raise FloatingPointError(f"chunk {bad_chunk}")
            pinned_walk(rng, *args)

        pinned_walk, started = limitdist._pinned_walk, threading.active_count()
        monkeypatch.setattr(limitdist, "_THREADS", threads)
        monkeypatch.setattr(limitdist, "_pinned_walk", failing_walk)
        with pytest.raises(FloatingPointError, match=f"chunk {bad_chunk}"):
            simulate_bridge_functional(BridgePathConfig(num_paths=3 * 2048, grid_size=10))
        assert threading.active_count() == started

    def test_peak_memory_depends_on_grid_not_paths(self):
        def traced_peak_without_output(num_paths, grid_size):
            config = BridgePathConfig(num_paths=num_paths, grid_size=grid_size, seed=0)
            tracemalloc.start()
            try:
                simulate_bridge_functional(config)
                return tracemalloc.get_traced_memory()[1] - 8 * num_paths
            finally:
                tracemalloc.stop()

        assert traced_peak_without_output(4096, 2000) < 8_000_000
        small = traced_peak_without_output(2048, 1000)
        large = traced_peak_without_output(8192, 1000)
        assert abs(large - small) < 1_000_000

    def test_samples_nonnegative(self):
        samples = simulate_bridge_functional(BridgePathConfig(num_paths=500, grid_size=50, seed=1))
        assert np.all(samples >= 0.0)

    def test_mean_close_to_analytic(self):
        config = BridgePathConfig(num_paths=60_000, grid_size=500, seed=2)
        samples = simulate_bridge_functional(config)
        assert_allclose(samples.mean(), BRIDGE_MEAN, atol=0.003)

    def test_reproducible(self):
        config = BridgePathConfig(num_paths=1000, grid_size=100, seed=3)
        assert_array_equal(
            simulate_bridge_functional(config), simulate_bridge_functional(config)
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BridgePathConfig(num_paths=0, grid_size=100)
        with pytest.raises(ValueError):
            BridgePathConfig(num_paths=10, grid_size=1)
        for seed in (-1, True, 1.5):
            with pytest.raises(ValueError):
                BridgePathConfig(num_paths=10, seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [("num_paths", 2.5), ("num_paths", True), ("num_paths", np.float64(10.0)),
         ("grid_size", 2.5), ("grid_size", True), ("grid_size", "100")],
    )
    def test_sizes_must_be_integers(self, field, value):
        kwargs = {"num_paths": 10, "grid_size": 100, field: value}
        with pytest.raises(ValueError, match=field):
            BridgePathConfig(**kwargs)

    def test_numpy_integer_sizes_accepted(self):
        config = BridgePathConfig(num_paths=np.int64(3), grid_size=np.int32(4), seed=np.uint8(1))
        assert simulate_bridge_functional(config).shape == (3,)


class TestLimitQuantiles:
    def test_simple_grid(self):
        samples = np.arange(1.0, 101.0)
        assert limit_quantiles(samples, [0.9])[0] == 90.0

    def test_rank_on_float_grid(self):
        # 204/375 == 0.544 in floats, while ceil(375*0.544) is 205
        samples = np.arange(1.0, 376.0)
        assert limit_quantiles(samples, [0.544])[0] == 204.0
        assert empirical_quantile(samples, 0.544) == 204.0

    def test_constant_samples(self):
        samples = np.full(50, 2.5)
        assert_array_equal(limit_quantiles(samples, [0.1, 0.5, 0.99]), [2.5, 2.5, 2.5])

    def test_monotone_in_level(self):
        rng = np.random.default_rng(53)
        samples = rng.random(999)
        qs = limit_quantiles(samples, [0.5, 0.8, 0.9, 0.95, 0.99])
        assert np.all(np.diff(qs) >= 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            limit_quantiles([], [0.5])
        with pytest.raises(ValueError):
            limit_quantiles([1.0], [0.0])
        with pytest.raises(ValueError):
            limit_quantiles([1.0], [1.0])
        with pytest.raises(ValueError):
            limit_quantiles(np.arange(1.0, 11.0), [float("nan")])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            limit_quantiles([1.0, bad, 2.0], [0.9])

    def test_bridge_quantiles_near_reference(self):
        config = BridgePathConfig(num_paths=60_000, grid_size=500, seed=4)
        samples = simulate_bridge_functional(config)
        qs = limit_quantiles(samples, [0.9, 0.95, 0.99])
        assert_allclose(qs, [0.39, 0.48, 0.68], atol=0.02)


class TestLimitVariance:
    def test_product_copula_on_diagonal(self):
        inputs = LimitVarianceInputs(
            u=0.3, lam=0.5, R_u=0.3, r_u=1.0, C_RuU=0.09, C_uu=0.09
        )
        assert_allclose(limit_variance(inputs), 0.21, rtol=1e-15)

    def test_one_sample_limit(self):
        inputs = LimitVarianceInputs(u=0.4, lam=1.0, R_u=0.7, r_u=0.0, C_RuU=0.2, C_uu=0.3)
        assert_allclose(limit_variance(inputs), 0.7 * 0.3, rtol=1e-15)

    def test_comonotone_on_diagonal(self):
        for u in (0.2, 0.5, 0.8):
            inputs = LimitVarianceInputs(
                u=u, lam=0.5, R_u=u, r_u=1.0, C_RuU=u, C_uu=u
            )
            assert_allclose(limit_variance(inputs), 0.0, atol=1e-15)

    def test_contact_set_identity_matched(self):
        # on the diagonal with equal weights the variance is u - C(u, u)
        rng = np.random.default_rng(54)
        for _ in range(50):
            u = float(rng.uniform(0.05, 0.95))
            c_uu = float(rng.uniform(max(2 * u - 1.0, 0.0), u))
            inputs = LimitVarianceInputs(
                u=u, lam=0.5, R_u=u, r_u=1.0, C_RuU=c_uu, C_uu=c_uu
            )
            assert_allclose(limit_variance(inputs), u - c_uu, rtol=1e-12, atol=1e-15)

    def test_contact_set_identity_product(self):
        # with the product copula the identity holds for any weight
        rng = np.random.default_rng(55)
        for _ in range(50):
            u = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.05, 1.0))
            inputs = LimitVarianceInputs(
                u=u, lam=lam, R_u=u, r_u=1.0, C_RuU=u * u, C_uu=u * u
            )
            assert_allclose(limit_variance(inputs), u - u * u, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("field", ["u", "lam", "R_u", "r_u", "C_RuU", "C_uu"])
    @pytest.mark.parametrize("value", ["0.5", None])
    def test_fields_must_be_numbers(self, field, value):
        fields = {"u": 0.4, "lam": 1.0, "R_u": 0.7, "r_u": 0.0, "C_RuU": 0.2, "C_uu": 0.3}
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            LimitVarianceInputs(**fields)

    @pytest.mark.parametrize("field", ["u", "lam", "R_u", "r_u", "C_RuU", "C_uu"])
    def test_fields_must_fit_a_float(self, field):
        # r_u = 10**400 passed every range check, and limit_variance overflowed
        fields = {"u": 0.4, "lam": 1.0, "R_u": 0.7, "r_u": 0.0, "C_RuU": 0.2, "C_uu": 0.3}
        fields[field] = 10**400
        with pytest.raises(ValueError, match=f"{field} must be a real number within the float"):
            LimitVarianceInputs(**fields)

    def test_frechet_bounds_enforced(self):
        with pytest.raises(ValueError):
            LimitVarianceInputs(u=0.3, lam=0.5, R_u=0.3, r_u=1.0, C_RuU=0.4, C_uu=0.09)
        with pytest.raises(ValueError):
            LimitVarianceInputs(u=0.3, lam=0.5, R_u=0.3, r_u=1.0, C_RuU=0.09, C_uu=0.5)
        with pytest.raises(ValueError):
            LimitVarianceInputs(u=0.3, lam=0.5, R_u=0.3, r_u=1.0, C_RuU=-0.1, C_uu=0.09)
