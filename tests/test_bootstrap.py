import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from domtest import (
    BootstrapConfig,
    BootstrapWeights,
    Pairing,
    StatKind,
    TwoSampleData,
    bootstrap_odc,
    bootstrap_statistic_modified,
    bootstrap_statistic_standard,
    critical_value,
    draw_weights,
    empirical_copula_diag,
    empirical_odc,
    rank_profile,
    run_test,
    variance_profile,
)
from domtest.bootstrap import _Prepared, _bootstrap_draws, _counts, _multinomial_rows
from domtest.cli import emit_report

from oracles import (
    bootstrap_odc_brute,
    bootstrap_stat_brute,
    compositions,
    enumerate_bootstrap,
    exact_critical_value,
    exact_point_mass,
    ks_draws,
    multinomial_prob,
    wmw_draws,
)

ORACLE_X1 = [1.0, 2.0, 6.0]
ORACLE_X2 = [3.0, 4.0, 5.0]


def _random_data(rng, max_n=40, pairing=Pairing.INDEPENDENT):
    if pairing is Pairing.MATCHED:
        n = int(rng.integers(1, max_n))
        return TwoSampleData(x1=rng.random(n), x2=rng.random(n), pairing=pairing)
    n1 = int(rng.integers(1, max_n))
    n2 = int(rng.integers(1, max_n))
    return TwoSampleData(x1=rng.random(n1), x2=rng.random(n2))


class TestDrawWeights:
    def test_mass_conserved(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            data = _random_data(rng)
            w = draw_weights(data, rng)
            assert int(w.w1.sum()) == data.n1
            assert int(w.w2.sum()) == data.n2
            assert np.all(w.w1 >= 0) and np.all(w.w2 >= 0)

    def test_matched_weights_coupled(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            data = _random_data(rng, pairing=Pairing.MATCHED)
            w = draw_weights(data, rng)
            assert_array_equal(w.w1, w.w2)

    def test_fixed_seed_reproducible(self):
        data = TwoSampleData(x1=np.arange(5.0), x2=np.arange(5.0) + 0.5)
        first = draw_weights(data, np.random.default_rng(1234))
        second = draw_weights(data, np.random.default_rng(1234))
        assert_array_equal(first.w1, second.w1)
        assert_array_equal(first.w2, second.w2)

    def test_counts_are_multinomial(self):
        # mean count per category is 1; variance (n-1)/n
        rng = np.random.default_rng(33)
        rows = _multinomial_rows(rng, 10, 20000)
        assert_allclose(rows.mean(axis=0), 1.0, atol=0.05)
        assert_allclose(rows.var(), 0.9, atol=0.05)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            BootstrapWeights(w1=[2, 1], w2=[1, 1])
        with pytest.raises(ValueError):
            BootstrapWeights(w1=[-1, 3], w2=[1, 1])


class TestBootstrapOdc:
    def test_identity_resample(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            data = _random_data(rng)
            w = BootstrapWeights(w1=np.ones(data.n1, int), w2=np.ones(data.n2, int))
            assert_array_equal(bootstrap_odc(data, w).values, empirical_odc(data).values)

    def test_point_mass_resample(self):
        data = TwoSampleData(x1=[1.0, 2.0, 3.0], x2=[1.5, 2.5, 3.5])
        w = BootstrapWeights(w1=[3, 0, 0], w2=[1, 1, 1])
        # all first-sample mass at its minimum, which precedes every x2 value
        assert_array_equal(bootstrap_odc(data, w).values, [1.0, 1.0, 1.0])

    def test_length_mismatch(self):
        data = TwoSampleData(x1=[1.0, 2.0], x2=[3.0])
        with pytest.raises(ValueError):
            bootstrap_odc(data, BootstrapWeights(w1=[1, 1], w2=[1, 1]))

    def test_matches_brute_on_full_support(self):
        data = TwoSampleData(x1=ORACLE_X1, x2=ORACLE_X2)
        for w1 in compositions(3, 3):
            for w2 in compositions(3, 3):
                weights = BootstrapWeights(w1=np.array(w1), w2=np.array(w2))
                got = bootstrap_odc(data, weights).values
                assert_array_equal(got, bootstrap_odc_brute(data.x1, data.x2, w1, w2))

    def test_support_probabilities_sum_to_one(self):
        total = sum(multinomial_prob(w) for w in compositions(3, 3))
        assert abs(float(total) - 1.0) < 1e-12


class TestBootstrapStatistics:
    def test_standard_zero_at_identity(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 5.0], x2=[2.0, 3.0]))
        assert bootstrap_statistic_standard(curve, curve) == 0.0

    def test_standard_hand_sum(self):
        star = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))  # (1, 1)
        base = empirical_odc(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0]))  # (0, 0)
        assert bootstrap_statistic_standard(star, base) == 1.0

    def test_standard_nonnegative(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            data = _random_data(rng)
            w = draw_weights(data, rng)
            star = bootstrap_odc(data, w)
            assert bootstrap_statistic_standard(star, empirical_odc(data)) >= 0.0

    def test_grid_mismatch(self):
        a = empirical_odc(TwoSampleData(x1=[1.0], x2=[2.0]))
        b = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        with pytest.raises(ValueError):
            bootstrap_statistic_standard(a, b)

    def test_modified_recovers_standard_at_infinite_tau(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            data = _random_data(rng)
            v = variance_profile(data)
            star = bootstrap_odc(data, draw_weights(data, rng))
            base = empirical_odc(data)
            assert bootstrap_statistic_modified(star, base, v, math.inf) == (
                bootstrap_statistic_standard(star, base)
            )

    def test_modified_keeps_diagonal_curve(self):
        # base curve exactly on the diagonal: every indicator fires
        data = TwoSampleData(x1=[1.0, 3.0, 5.0], x2=[2.0, 4.0, 6.0])
        base = empirical_odc(data)
        assert_array_equal(base.values, base.grid)
        v = variance_profile(data)
        rng = np.random.default_rng(37)
        for _ in range(20):
            star = bootstrap_odc(data, draw_weights(data, rng))
            assert bootstrap_statistic_modified(star, base, v, 0.75) == (
                bootstrap_statistic_standard(star, base)
            )

    def test_modified_between_zero_and_standard(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            data = _random_data(rng)
            v = variance_profile(data)
            star = bootstrap_odc(data, draw_weights(data, rng))
            base = empirical_odc(data)
            tau = float(rng.uniform(0.1, 2.0))
            modified = bootstrap_statistic_modified(star, base, v, tau)
            assert 0.0 <= modified <= bootstrap_statistic_standard(star, base)

    def test_modified_rejects_bad_tau(self):
        data = TwoSampleData(x1=[1.0], x2=[2.0])
        curve = empirical_odc(data)
        with pytest.raises(ValueError):
            bootstrap_statistic_modified(curve, curve, variance_profile(data), 0.0)

    def test_matches_brute(self):
        rng = np.random.default_rng(39)
        for matched in (False, True):
            pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
            for _ in range(20):
                data = _random_data(rng, max_n=12, pairing=pairing)
                w = draw_weights(data, rng)
                star = bootstrap_odc(data, w)
                base = empirical_odc(data)
                v = variance_profile(data)
                for tau in (math.inf, 0.75):
                    got = bootstrap_statistic_modified(star, base, v, tau)
                    want = bootstrap_stat_brute(
                        list(data.x1), list(data.x2), list(w.w1), list(w.w2), tau, matched
                    )
                    assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestVarianceProfile:
    def test_independent_formula(self):
        data = TwoSampleData(x1=[9.0], x2=[0.1, 0.2, 0.3, 0.4])
        v = variance_profile(data).v
        assert v[1] == 0.25
        assert v[3] == 0.0
        i = np.arange(1, 5, dtype=np.float64)
        assert_array_equal(v, i / 4 - i**2 / 16)

    def test_matched_comonotone_is_zero(self):
        x1 = np.array([1.0, 2.0, 3.0, 4.0])
        data = TwoSampleData(x1=x1, x2=x1 * 10.0, pairing=Pairing.MATCHED)
        assert_array_equal(variance_profile(data).v, np.zeros(4))

    def test_matched_nonnegative(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            data = _random_data(rng, pairing=Pairing.MATCHED)
            assert np.all(variance_profile(data).v >= 0.0)


class TestEmpiricalCopulaDiag:
    def test_comonotone(self):
        data = TwoSampleData(
            x1=[1.0, 2.0, 3.0, 4.0], x2=[10.0, 20.0, 30.0, 40.0], pairing=Pairing.MATCHED
        )
        assert_array_equal(empirical_copula_diag(rank_profile(data)), [0.25, 0.5, 0.75, 1.0])

    def test_antithetic(self):
        data = TwoSampleData(
            x1=[1.0, 2.0, 3.0, 4.0], x2=[40.0, 30.0, 20.0, 10.0], pairing=Pairing.MATCHED
        )
        diag = empirical_copula_diag(rank_profile(data))
        assert diag[2] == 0.5

    def test_single_pair(self):
        data = TwoSampleData(x1=[7.0], x2=[9.0], pairing=Pairing.MATCHED)
        assert_array_equal(empirical_copula_diag(rank_profile(data)), [1.0])


class TestCriticalValue:
    def test_hundred_draws(self):
        assert critical_value(np.arange(1.0, 101.0), 0.05) == 95.0

    def test_ten_draws(self):
        assert critical_value(np.arange(1.0, 11.0), 0.05) == 10.0

    def test_degenerate(self):
        assert critical_value(np.full(17, 3.25), 0.3) == 3.25

    def test_monotone_in_level(self):
        rng = np.random.default_rng(41)
        draws = rng.random(321)
        values = [critical_value(draws, a) for a in (0.4, 0.2, 0.1, 0.05, 0.01)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert draws.min() <= values[0] and values[-1] <= draws.max()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            critical_value([], 0.05)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            critical_value([1.0], 0.6)

    @settings(max_examples=300, deadline=None)
    @given(
        draws=st.lists(st.integers(0, 30), min_size=1, max_size=400),
        alpha_k=st.integers(1, 499),
        stat_halves=st.integers(-1, 61),
    )
    @example(draws=list(range(1, 101)), alpha_k=450, stat_halves=111)
    @example(draws=list(range(1, 101)), alpha_k=430, stat_halves=115)
    def test_rejects_exactly_when_p_value_at_most_alpha(self, draws, alpha_k, stat_halves):
        # run_test's decision with eta = 0 against its p-value; tied draws
        # and statistics on and between the draw values
        arr = np.array(draws, dtype=np.float64)
        alpha = alpha_k / 1000
        stat = stat_halves / 2
        p_value = float(np.count_nonzero(arr >= stat)) / arr.size
        assert (stat > critical_value(arr, alpha)) == (p_value <= alpha)


class TestBootstrapConfig:
    @pytest.mark.parametrize("seed", [True, False, -1, 2**64, 1.5, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            BootstrapConfig(seed=seed)

    def test_integer_seeds_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(5)):
            assert BootstrapConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("num_reps", [2.5, True, 0, np.int64(0)])
    def test_num_reps_must_be_a_positive_integer(self, num_reps):
        with pytest.raises(ValueError, match="num_reps"):
            BootstrapConfig(num_reps=num_reps)

    def test_numpy_integer_num_reps_runs(self):
        config = BootstrapConfig(num_reps=np.int64(7))
        data = TwoSampleData(x1=[1.0, 2.0], x2=[0.5, 3.0])
        assert run_test(data, config) == run_test(data, BootstrapConfig(num_reps=7))

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "0.05"), ("alpha", None), ("tau", "0.75"), ("tau", None), ("tau", True),
         ("eta", "0"), ("eta", None), ("eta", True), ("eta", False)],
    )
    def test_float_fields_must_be_numbers(self, field, value):
        # a bool would be written into the report as true/false
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            BootstrapConfig(**{field: value})

    @pytest.mark.parametrize("field", ["alpha", "tau", "eta"])
    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
    def test_float_fields_must_fit_a_float(self, field, value):
        # the int passes the type check, and float() of it overflows
        with pytest.raises(ValueError, match=f"{field} must be a real number within the float"):
            BootstrapConfig(**{field: value})


class TestRunTest:
    def test_dominated_sample_never_rejects(self):
        data = TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0])
        for tau in (math.inf, 0.5):
            report = run_test(data, BootstrapConfig(tau=tau, num_reps=199, seed=5))
            assert report.statistic == 0.0
            assert not report.reject

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(42)
        data = _random_data(rng)
        config = BootstrapConfig(alpha=0.1, tau=1.0, num_reps=257, seed=99)
        assert run_test(data, config) == run_test(data, config)

    def test_rank_invariant_report(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            data = _random_data(rng, pairing=Pairing.MATCHED)
            config = BootstrapConfig(tau=0.75, num_reps=101, seed=7)
            base = run_test(data, config)
            for g in (np.exp, lambda x: x**3 + 7.0):
                moved = TwoSampleData(x1=g(data.x1), x2=g(data.x2), pairing=data.pairing)
                assert run_test(moved, config) == base

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rank_invariance_property(self, data):
        # Small integers carry heavy ties, and x**3 + 7 maps them to exact,
        # strictly increasing floats, so the joint ranks cannot move.
        matched = data.draw(st.booleans())
        n1 = data.draw(st.integers(1, 25))
        n2 = n1 if matched else data.draw(st.integers(1, 25))
        span = data.draw(st.sampled_from([1, 3, 40]))
        values = st.integers(-span, span)
        x1 = np.array(data.draw(st.lists(values, min_size=n1, max_size=n1)), dtype=float)
        x2 = np.array(data.draw(st.lists(values, min_size=n2, max_size=n2)), dtype=float)
        pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
        config = BootstrapConfig(
            tau=data.draw(st.sampled_from([math.inf, 0.75, 0.3])),
            num_reps=data.draw(st.integers(1, 60)),
            seed=data.draw(st.integers(0, 2**64 - 1)),
            statistic_kind=data.draw(st.sampled_from([StatKind.WMW, StatKind.KS])),
        )
        base = run_test(TwoSampleData(x1=x1, x2=x2, pairing=pairing), config)
        moved = TwoSampleData(x1=x1**3 + 7, x2=x2**3 + 7, pairing=pairing)
        report = run_test(moved, config)
        assert report == base
        assert emit_report(report) == emit_report(base)

    def test_report_echoes_config(self):
        data = TwoSampleData(x1=[1.0, 2.0], x2=[0.5, 3.0])
        config = BootstrapConfig(alpha=0.25, tau=1.5, num_reps=55, eta=1e-6, seed=11)
        report = run_test(data, config)
        assert (report.alpha, report.tau, report.num_reps) == (0.25, 1.5, 55)
        assert (report.eta, report.seed) == (1e-6, 11)
        assert (report.n1, report.n2, report.pairing) == (2, 2, Pairing.INDEPENDENT)

    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_infinite_tau_builds_no_variance_profile(self, monkeypatch, pairing):
        def fail(data):
            raise AssertionError("tau = inf keeps every cell without a variance profile")

        data = TwoSampleData(x1=[1.0, 2.0, 5.0], x2=[0.5, 3.0, 4.0], pairing=pairing)
        config = BootstrapConfig(tau=math.inf, num_reps=19)
        expected = run_test(data, config)
        monkeypatch.setattr("domtest.bootstrap.variance_profile", fail)
        assert run_test(data, config) == expected

    def test_reject_consistent_with_fields(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            data = _random_data(rng)
            config = BootstrapConfig(num_reps=99, seed=int(rng.integers(1 << 31)))
            report = run_test(data, config)
            assert report.reject == (report.statistic > max(report.critical_value, report.eta))
            assert 0.0 <= report.p_value <= 1.0

    def test_modified_cv_below_standard_cv(self):
        rng = np.random.default_rng(45)
        for _ in range(15):
            data = _random_data(rng)
            seed = int(rng.integers(1 << 31))
            for tau in (0.5, 0.75, 1.5):
                fin = run_test(data, BootstrapConfig(tau=tau, num_reps=301, seed=seed))
                inf = run_test(data, BootstrapConfig(tau=math.inf, num_reps=301, seed=seed))
                assert fin.critical_value <= inf.critical_value

    def test_eta_floor_applies(self):
        data = TwoSampleData(x1=[1.0, 3.0], x2=[2.0, 4.0])
        low = run_test(data, BootstrapConfig(num_reps=99, seed=3, eta=0.0))
        high = run_test(data, BootstrapConfig(num_reps=99, seed=3, eta=1e6))
        assert not high.reject
        assert high.critical_value == low.critical_value

    def test_ks_statistic_kind(self):
        data = TwoSampleData(x1=[1.0, 4.0], x2=[2.0, 3.0])
        report = run_test(
            data, BootstrapConfig(num_reps=99, seed=1, statistic_kind=StatKind.KS)
        )
        assert report.statistic_kind is StatKind.KS
        assert report.statistic >= 0.0

    def test_sampled_cv_matches_enumeration_small_n(self):
        data = TwoSampleData(x1=ORACLE_X1, x2=ORACLE_X2)
        for tau in (math.inf, 0.75):
            outcomes = enumerate_bootstrap(ORACLE_X1, ORACLE_X2, tau, matched=False)
            for alpha in (0.05, 0.1):
                config = BootstrapConfig(alpha=alpha, tau=tau, num_reps=20_000, seed=8)
                report = run_test(data, config)
                exact = exact_critical_value(outcomes, alpha)
                assert_allclose(report.critical_value, exact, rtol=0, atol=1e-12)


class TestEnumerationOracle:
    def test_single_observation_degenerate(self):
        # n1 = n2 = 1: the only weight vector is (1,), the draw is always 0
        outcomes = enumerate_bootstrap([4.0], [7.0], math.inf, matched=False)
        assert len(outcomes) == 1
        weights, prob, value = outcomes[0]
        assert weights == ((1,), (1,))
        assert float(prob) == 1.0
        assert value == 0.0
        assert exact_critical_value(outcomes, 0.05) == 0.0
        data = TwoSampleData(x1=[4.0], x2=[7.0])
        report = run_test(data, BootstrapConfig(num_reps=500, seed=2, tau=math.inf))
        assert report.critical_value == 0.0

    def test_point_mass_at_zero_matches_sampling(self):
        # n1 = n2 = 2 identity-like data: P(draw == 0) by enumeration vs the
        # sampled frequency, within three binomial standard errors
        x1, x2 = [1.0, 3.0], [2.0, 4.0]
        outcomes = enumerate_bootstrap(x1, x2, math.inf, matched=False)
        p_zero = float(exact_point_mass(outcomes, 0.0))
        data = TwoSampleData(x1=x1, x2=x2)
        rng = np.random.default_rng(48)
        base = empirical_odc(data)
        n_draws = 20_000
        hits = 0
        for _ in range(n_draws):
            star = bootstrap_odc(data, draw_weights(data, rng))
            hits += bootstrap_statistic_standard(star, base) == 0.0
        se = math.sqrt(p_zero * (1 - p_zero) / n_draws)
        assert abs(hits / n_draws - p_zero) <= 3 * se

    def test_matched_enumeration_weights_coupled(self):
        outcomes = enumerate_bootstrap([1.0, 5.0, 6.0], [2.0, 3.0, 4.0], 0.75, matched=True)
        assert len(outcomes) == 10
        assert all(w1 == w2 for (w1, w2), _, _ in outcomes)
        assert abs(float(sum(p for _, p, _ in outcomes)) - 1.0) < 1e-12


class TestBatchEngine:
    def test_wmw_batch_agrees_with_public_ops(self):
        # drive the vectorized path and the one-draw public ops with the same
        # weight matrices; the draws must coincide bit for bit
        rng = np.random.default_rng(46)
        datasets = [
            _random_data(rng, max_n=25, pairing=pairing)
            for pairing in (Pairing.INDEPENDENT, Pairing.MATCHED)
        ]
        tied = rng.integers(0, 5, 19).astype(float), rng.integers(0, 5, 23).astype(float)
        datasets.append(TwoSampleData(x1=tied[0], x2=tied[1]))
        for data in datasets:
            prep = _Prepared(data)
            w1 = _multinomial_rows(np.random.default_rng(77), data.n1, 64)
            if data.pairing is Pairing.MATCHED:
                w2 = w1
            else:
                w2 = _multinomial_rows(np.random.default_rng(78), data.n2, 64)
            for tau in (math.inf, 0.75):
                draws = wmw_draws(prep, w1, w2, prep.keep_columns(tau))
                base = empirical_odc(data)
                v = variance_profile(data)
                expected = []
                for r in range(64):
                    w = BootstrapWeights(w1=w1[r], w2=w2[r])
                    star = bootstrap_odc(data, w)
                    expected.append(bootstrap_statistic_modified(star, base, v, tau))
                assert_array_equal(draws, expected)

    def test_chunked_batches_match_single_batch(self, monkeypatch):
        data = TwoSampleData(x1=np.linspace(0, 1, 30), x2=np.linspace(0.01, 1.2, 40))
        config = BootstrapConfig(tau=math.inf, num_reps=500, seed=17)
        full = _bootstrap_draws(_Prepared(data), config, np.random.default_rng(5))
        monkeypatch.setattr("domtest.bootstrap._BATCH_ELEMENTS", 700)
        chunked = _bootstrap_draws(_Prepared(data), config, np.random.default_rng(5))
        assert chunked.shape == full.shape
        assert np.isfinite(chunked).all()

    @pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
    @pytest.mark.parametrize(
        "kind, tau",
        [(StatKind.WMW, 0.75), (StatKind.WMW, math.inf), (StatKind.KS, math.inf)],
    )
    def test_sub_chunk_size_leaves_draws_unchanged(self, monkeypatch, pairing, kind, tau):
        # sub-chunking only regroups rows of a batch, so every chunk size, with
        # one batch or several, must give the same draws bit for bit
        rng = np.random.default_rng(49)
        n1 = 23
        n2 = n1 if pairing is Pairing.MATCHED else 29
        x1 = rng.integers(0, 8, n1).astype(float)
        x2 = rng.integers(0, 8, n2).astype(float)
        data = TwoSampleData(x1=x1, x2=x2, pairing=pairing)
        prep = _Prepared(data)
        per_row = data.n1 + data.n2
        config = BootstrapConfig(tau=tau, num_reps=101, seed=3, statistic_kind=kind)
        for batch_elements in (4_000_000, 17 * per_row):
            monkeypatch.setattr("domtest.bootstrap._BATCH_ELEMENTS", batch_elements)
            monkeypatch.setattr("domtest.bootstrap._CHUNK_ELEMENTS", 1 << 40)
            whole = _bootstrap_draws(prep, config, np.random.default_rng(5))
            for chunk_elements in (1, 3 * per_row, 4 * per_row - 1):
                monkeypatch.setattr("domtest.bootstrap._CHUNK_ELEMENTS", chunk_elements)
                chunked = _bootstrap_draws(prep, config, np.random.default_rng(5))
                assert_array_equal(chunked, whole)

    @pytest.mark.parametrize("n", [40_000, 46_341])
    def test_ks_wide_grid_matches_int64_formula(self, n):
        # n*n >= 2**30: the recentered differences can pass 2**31, so the
        # engine must not wrap. Row 0 is the extreme draw: all first-sample
        # mass on its one small value, all second-sample mass on its one large
        # value, where the empirical gap F1 - F2 is near -1.
        x1 = np.concatenate([[0.0], np.arange(n - 1) + n + 1.0])
        x2 = np.concatenate([np.arange(1.0, n), [10.0 * n]])
        data = TwoSampleData(x1=x1, x2=x2)
        prep = _Prepared(data)
        w1 = np.zeros((2, n), dtype=np.int64)
        w2 = np.zeros((2, n), dtype=np.int64)
        w1[0, 0] = w2[0, -1] = n
        w1[1] = _multinomial_rows(np.random.default_rng(11), n, 1)[0]
        w2[1] = _multinomial_rows(np.random.default_rng(12), n, 1)[0]
        draws = ks_draws(prep, w1, w2)

        zeros = np.zeros((2, 1), dtype=np.int64)
        cum1 = np.concatenate([zeros, np.cumsum(w1[:, prep.perm1], axis=1)], axis=1)
        cum2 = np.concatenate([zeros, np.cumsum(w2[:, prep.perm2], axis=1)], axis=1)
        cnt1 = prep.cnt1.astype(np.int64)
        cnt2 = prep.cnt2.astype(np.int64)
        ks_base = cnt1 * n - cnt2 * n
        diff = cum1[:, cnt1] * n - cum2[:, cnt2] * n - ks_base
        best = np.maximum(diff.max(axis=1), 0)
        assert best[0] == 2 * n * n - 2 * n
        sqrt_tn = math.sqrt(n * n / (2 * n))
        assert_array_equal(draws, best * (sqrt_tn / (n * n)))

    @pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
    def test_ks_batch_matches_brute_recentering(self, pairing):
        rng = np.random.default_rng(47)
        data = _random_data(rng, max_n=12, pairing=pairing)
        prep = _Prepared(data)
        n1, n2 = data.n1, data.n2
        w1 = _multinomial_rows(np.random.default_rng(9), n1, 32)
        w2 = w1 if pairing is Pairing.MATCHED else _multinomial_rows(np.random.default_rng(10), n2, 32)
        draws = ks_draws(prep, w1, w2)
        sqrt_tn = math.sqrt(n1 * n2 / (n1 + n2))
        pooled = np.concatenate([data.x1, data.x2])
        for r in range(32):
            best = 0.0
            for x in pooled:
                f1s = np.sum(w1[r] * (data.x1 <= x)) / n1
                f2s = np.sum(w2[r] * (data.x2 <= x)) / n2
                f1 = np.mean(data.x1 <= x)
                f2 = np.mean(data.x2 <= x)
                best = max(best, (f1s - f2s) - (f1 - f2))
            assert_allclose(draws[r], sqrt_tn * best, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "field, value", [("num_reps", np.int64(7)), ("seed", np.uint64(5)), ("seed", np.int32(5))]
)
def test_numpy_integer_config_reports_serialize(field, value):
    # The config stores Python ints, so the report's JSON is the one a
    # Python-int config gives.
    data = TwoSampleData(x1=[1.0, 2.0, 2.0], x2=[0.5, 3.0])
    config = BootstrapConfig(**{field: value})
    assert type(getattr(config, field)) is int
    plain = BootstrapConfig(**{field: int(value)})
    assert emit_report(run_test(data, config)) == emit_report(run_test(data, plain))


@pytest.mark.parametrize(
    "field, value",
    [("tau", np.float32(0.75)), ("alpha", np.float64(0.05)), ("eta", np.int64(0)), ("tau", 1)],
)
def test_numeric_float_fields_are_stored_as_floats(field, value):
    # The config stores Python floats, so a numpy float32 serializes and an
    # int tau is written as a float.
    data = TwoSampleData(x1=[1.0, 2.0, 2.0], x2=[0.5, 3.0])
    config = BootstrapConfig(**{field: value})
    assert type(getattr(config, field)) is float
    plain = BootstrapConfig(**{field: float(value)})
    assert emit_report(run_test(data, config)) == emit_report(run_test(data, plain))


@st.composite
def _tau_inf_case(draw):
    # Heavy ties (a span of 1 leaves three values), n = 1, unequal n and
    # both pairings.
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 20))
    n2 = n1 if matched else draw(st.integers(1, 20))
    span = draw(st.sampled_from([1, 3, 40]))
    values = st.integers(-span, span).map(float)
    x1 = draw(st.lists(values, min_size=n1, max_size=n1))
    x2 = draw(st.lists(values, min_size=n2, max_size=n2))
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


@settings(max_examples=200, deadline=None)
@given(data=_tau_inf_case(), num_reps=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_infinite_tau_reproduces_standard_draws(data, num_reps, seed):
    # With tau = inf the screen keeps every cell, so each modified draw is the
    # standard draw on the same weights, bit for bit.
    matched = data.pairing is Pairing.MATCHED
    replay = np.random.default_rng(seed)
    # One batch at these sizes: all x1 rows, then (independent) all x2 rows.
    c1 = replay.integers(0, data.n1, size=(num_reps, data.n1))
    c2 = c1 if matched else replay.integers(0, data.n2, size=(num_reps, data.n2))
    w1, w2 = _counts(c1), _counts(c2)
    base = empirical_odc(data)
    v = variance_profile(data)
    standard = []
    for r in range(num_reps):
        star = bootstrap_odc(data, BootstrapWeights(w1=w1[r], w2=w2[r]))
        draw = bootstrap_statistic_standard(star, base)
        assert bootstrap_statistic_modified(star, base, v, math.inf) == draw
        standard.append(draw)
    config = BootstrapConfig(tau=math.inf, num_reps=num_reps, seed=seed)
    got = _bootstrap_draws(_Prepared(data), config, np.random.default_rng(seed))
    assert_array_equal(got, standard)
