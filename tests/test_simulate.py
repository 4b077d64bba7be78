import dataclasses
import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri
from scipy.stats import spearmanr

from domtest import (
    BootstrapConfig,
    CopulaKind,
    CopulaSpec,
    FamilyKind,
    OdcFamily,
    Pairing,
    ScenarioSpec,
    StatKind,
    generate_dataset,
    odc_family_eval,
    rejection_rate,
)

from domtest.simulate import _gaussian_copula
from oracles import gaussian_copula_pair, normal_cdf_ref, normal_quantile_ref


def _spec(family, n1=30, n2=30, pairing=Pairing.INDEPENDENT, rho=0.0, mc_reps=10, **boot):
    copula = (
        CopulaSpec(kind=CopulaKind.GAUSSIAN, rho=rho)
        if pairing is Pairing.MATCHED
        else CopulaSpec(kind=CopulaKind.PRODUCT)
    )
    return ScenarioSpec(
        family=family,
        n1=n1,
        n2=n2,
        copula=copula,
        pairing=pairing,
        mc_reps=mc_reps,
        bootstrap=BootstrapConfig(**{"num_reps": 50, "seed": 0, **boot}),
    )


class TestFamilyEval:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_gamma_zero_is_identity(self, kind):
        family = OdcFamily(kind=kind, gamma=0.0)
        for u in (0.1, 0.37, 0.5, 0.9):
            assert_allclose(odc_family_eval(family, u), u, rtol=1e-12)

    def test_power_null_square(self):
        family = OdcFamily(kind=FamilyKind.POWER_NULL, gamma=1.0)
        assert odc_family_eval(family, 0.5) == 0.25

    def test_partial_null_identity_above_half(self):
        family = OdcFamily(kind=FamilyKind.PARTIAL_CONTACT_NULL, gamma=2.0)
        assert odc_family_eval(family, 0.7) == 0.7
        assert odc_family_eval(family, 0.5) == 0.5

    def test_partial_null_below_diagonal(self):
        family = OdcFamily(kind=FamilyKind.PARTIAL_CONTACT_NULL, gamma=0.5)
        grid = np.linspace(0.001, 0.999, 499)
        values = odc_family_eval(family, grid)
        assert np.all(values <= grid)
        assert np.all(values[grid >= 0.5] == grid[grid >= 0.5])

    def test_power_alt_above_diagonal(self):
        family = OdcFamily(kind=FamilyKind.POWER_ALT, gamma=0.25)
        grid = np.linspace(0.001, 0.999, 499)
        values = odc_family_eval(family, grid)
        assert np.all(values > grid)

    def test_normal_alt_crosses_diagonal(self):
        family = OdcFamily(kind=FamilyKind.NORMAL_SHIFT_ALT, gamma=0.3)
        assert odc_family_eval(family, 0.25) < 0.25
        assert odc_family_eval(family, 0.75) > 0.75

    def test_domain_errors(self):
        family = OdcFamily(kind=FamilyKind.POWER_NULL, gamma=1.0)
        for u in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                odc_family_eval(family, u)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_every_family_rejects_points_off_the_open_interval(self, kind):
        # nan passed the range check and came back as a nan curve value
        family = OdcFamily(kind=kind, gamma=0.5)
        for u in (0.0, 1.0, -0.2, 1.3, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="defined on"):
                odc_family_eval(family, u)

    def test_negative_gamma_rejected_for_one_sided_families(self):
        for kind in (FamilyKind.POWER_NULL, FamilyKind.PARTIAL_CONTACT_NULL, FamilyKind.POWER_ALT):
            with pytest.raises(ValueError):
                OdcFamily(kind=kind, gamma=-0.1)
        OdcFamily(kind=FamilyKind.NORMAL_SHIFT_ALT, gamma=-0.1)

    def test_power_alt_gamma_above_one_rejected(self):
        with pytest.raises(ValueError, match="gamma <= 1"):
            OdcFamily(kind=FamilyKind.POWER_ALT, gamma=1.5)
        family = OdcFamily(kind=FamilyKind.POWER_ALT, gamma=1.0)
        assert odc_family_eval(family, 0.3) == 1.0


    @pytest.mark.parametrize("gamma", ["0.5", None, True])
    def test_gamma_must_be_a_number(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a real number"):
            OdcFamily(kind=FamilyKind.POWER_NULL, gamma=gamma)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("gamma", [10**400, -(10**400)])
    def test_gamma_must_fit_a_float(self, kind, gamma):
        with pytest.raises(ValueError, match="gamma must be a real number within the float"):
            OdcFamily(kind=kind, gamma=gamma)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_gamma_rejects_a_long_double_past_the_float_range(self, kind, long_double_past_float):
        with pytest.raises(ValueError, match="gamma must be a real number within the float"):
            OdcFamily(kind=kind, gamma=long_double_past_float)

    def test_family_kind_must_be_a_member(self):
        # a string kind would fall through to the partial-null curve
        with pytest.raises(ValueError, match="invalid family kind"):
            OdcFamily(kind="power-null", gamma=0.5)


class TestGaussianCopula:
    def test_copula_kind_must_be_a_member(self):
        # a string kind would give matched specs independent pairs
        with pytest.raises(ValueError, match="invalid copula kind"):
            CopulaSpec(kind="gaussian", rho=0.9)

    @pytest.mark.parametrize(
        "kind, rho",
        [(CopulaKind.GAUSSIAN, "0.5"), (CopulaKind.GAUSSIAN, None), (CopulaKind.GAUSSIAN, True),
         (CopulaKind.PRODUCT, "0.0")],
    )
    def test_rho_must_be_a_number(self, kind, rho):
        with pytest.raises(ValueError, match="rho must be a real number"):
            CopulaSpec(kind=kind, rho=rho)

    @pytest.mark.parametrize("kind", list(CopulaKind))
    @pytest.mark.parametrize("rho", [10**400, -(10**400)])
    def test_rho_must_fit_a_float(self, kind, rho):
        # the product copula's repr(float(rho)) check raised OverflowError
        with pytest.raises(ValueError, match="rho must be a real number within the float"):
            CopulaSpec(kind=kind, rho=rho)

    @pytest.mark.parametrize("kind", list(CopulaKind))
    def test_rho_rejects_a_long_double_past_the_float_range(self, kind, long_double_past_float):
        with pytest.raises(ValueError, match="rho must be a real number within the float"):
            CopulaSpec(kind=kind, rho=long_double_past_float)

    @pytest.mark.parametrize("rho", [0.9, -0.5, math.nan])
    def test_product_copula_takes_no_rho(self, rho):
        # the product copula ignores rho, which _scenario_key would still hash
        # into another stream for the same scenario; every zero is stored as 0.0
        with pytest.raises(ValueError, match="takes no rho"):
            CopulaSpec(kind=CopulaKind.PRODUCT, rho=rho)
        for zero in (0, -0.0, np.float32(-0.0)):
            assert CopulaSpec(kind=CopulaKind.PRODUCT, rho=zero) == CopulaSpec()

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            gaussian_copula_pair(1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            CopulaSpec(kind=CopulaKind.GAUSSIAN, rho=-1.0)

    def test_margins_uniform(self):
        rng = np.random.default_rng(61)
        draws = np.array([gaussian_copula_pair(0.6, rng) for _ in range(20_000)])
        for col in range(2):
            assert_allclose(draws[:, col].mean(), 0.5, atol=0.01)
            assert_allclose(draws[:, col].var(), 1.0 / 12.0, atol=0.005)

    def test_zero_rho_uncorrelated(self):
        rng = np.random.default_rng(62)
        draws = np.array([gaussian_copula_pair(0.0, rng) for _ in range(20_000)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_pair_stream_pinned(self):
        # sha256 of the float64 bytes, recorded before the pair became a
        # one-row call of the copula that generate_dataset uses
        rng = np.random.default_rng(2024)
        draws = np.array([gaussian_copula_pair(0.6, rng) for _ in range(50)])
        digest = hashlib.sha256(draws.tobytes()).hexdigest()
        assert digest == "7bfd897f799a4c28e7e72c18cec7b9bdc360502c04249023028421475ee58cb1"

    def test_matched_dataset_pinned(self):
        spec = _spec(
            OdcFamily(FamilyKind.POWER_ALT, 0.5), n1=40, n2=40, pairing=Pairing.MATCHED, rho=0.6
        )
        data = generate_dataset(spec, np.random.default_rng(2025))
        digest = hashlib.sha256(data.x1.tobytes() + data.x2.tobytes()).hexdigest()
        assert digest == "ed38fabfda7797ce544f87ac5e1dd9d97127268c36274584a476f85a734e8ac7"

    def test_underlying_normal_correlation(self):
        rng = np.random.default_rng(63)
        rho = 0.75
        draws = np.array([gaussian_copula_pair(rho, rng) for _ in range(100_000)])
        z1 = ndtri(draws[:, 0])
        z2 = ndtri(draws[:, 1])
        corr = np.corrcoef(z1, z2)[0, 1]
        assert_allclose(corr, rho, atol=0.01)


class TestGenerateDataset:
    def test_lfc_independent_uniform(self):
        spec = _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), n1=50_000, n2=50_000)
        rng = np.random.default_rng(64)
        data = generate_dataset(spec, rng)
        assert data.pairing is Pairing.INDEPENDENT
        for sample in (data.x1, data.x2):
            assert np.all((sample > 0) & (sample < 1))
            assert_allclose(sample.mean(), 0.5, atol=0.01)
            assert_allclose(sample.var(), 1.0 / 12.0, atol=0.005)

    def test_power_null_second_sample_is_squared_uniform(self):
        spec = _spec(OdcFamily(FamilyKind.POWER_NULL, 1.0), n1=200_000, n2=200_000)
        data = generate_dataset(spec, np.random.default_rng(65))
        # CDF of U^2 is sqrt(x)
        for x in (0.1, 0.3, 0.6, 0.9):
            assert_allclose(np.mean(data.x2 <= x), math.sqrt(x), atol=0.01)

    def test_matched_positive_rank_correlation(self):
        spec = _spec(
            OdcFamily(FamilyKind.POWER_NULL, 0.0),
            n1=5000,
            n2=5000,
            pairing=Pairing.MATCHED,
            rho=0.75,
        )
        data = generate_dataset(spec, np.random.default_rng(66))
        rho_s = spearmanr(data.x1, data.x2).statistic
        assert rho_s > 0.5

    def test_population_curve_matches_family(self):
        # empirical ODC of a large draw should hug the family curve
        family = OdcFamily(FamilyKind.POWER_NULL, gamma=1.0)
        spec = _spec(family, n1=100_000, n2=100_000)
        data = generate_dataset(spec, np.random.default_rng(67))
        from domtest import empirical_odc

        curve = empirical_odc(data)
        grid_idx = [9_999, 49_999, 89_999]
        for idx in grid_idx:
            u = (idx + 1) / spec.n2
            assert_allclose(curve.values[idx], odc_family_eval(family, u), atol=0.01)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), n1=3, n2=4, pairing=Pairing.MATCHED)
        with pytest.raises(ValueError):
            ScenarioSpec(
                family=OdcFamily(FamilyKind.POWER_NULL, 0.0),
                n1=3,
                n2=3,
                copula=CopulaSpec(kind=CopulaKind.GAUSSIAN, rho=0.5),
                pairing=Pairing.INDEPENDENT,
                mc_reps=5,
                bootstrap=BootstrapConfig(),
            )

    def test_pairing_must_be_a_member(self):
        with pytest.raises(ValueError, match="invalid pairing"):
            _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), pairing="matched")

    @pytest.mark.parametrize("field", ["n1", "n2", "mc_reps"])
    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_counts_must_be_positive_integers(self, field, value):
        sizes = {"n1": 3, "n2": 4, "mc_reps": 5, field: value}
        with pytest.raises(ValueError, match=field):
            _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), **sizes)

    @pytest.mark.parametrize("field", ["n1", "n2", "mc_reps"])
    def test_numpy_integer_counts_accepted(self, field):
        family = OdcFamily(FamilyKind.POWER_NULL, 0.0)
        sizes = {"n1": 3, "n2": 4, "mc_reps": 5}
        plain = _spec(family, **sizes, num_reps=9)
        spec = _spec(family, **{**sizes, field: np.int64(sizes[field])}, num_reps=9)
        assert rejection_rate(spec) == rejection_rate(plain)


class TestScenarioSpec:
    @pytest.mark.parametrize(
        "field, value",
        [("family", FamilyKind.POWER_NULL), ("copula", CopulaKind.PRODUCT),
         ("bootstrap", {"num_reps": 50, "seed": 0})],
    )
    def test_parts_must_have_their_types(self, field, value):
        # caught at construction, not as an AttributeError at the first replication
        spec = _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0))
        with pytest.raises(ValueError, match=f"invalid {field}"):
            dataclasses.replace(spec, **{field: value})


class TestRejectionRate:
    def test_bit_reproducible(self):
        spec = _spec(
            OdcFamily(FamilyKind.POWER_NULL, 0.0), n1=20, n2=20, mc_reps=40, seed=5
        )
        first = rejection_rate(spec)
        second = rejection_rate(spec)
        assert first == second

    @pytest.mark.parametrize(
        "spec, key",
        [
            (
                _spec(
                    OdcFamily(FamilyKind.POWER_ALT, 0.25),
                    n1=50,
                    n2=60,
                    mc_reps=200,
                    seed=3,
                    tau=0.75,
                    num_reps=499,
                ),
                7938522808727416144,
            ),
            (
                _spec(
                    OdcFamily(FamilyKind.PARTIAL_CONTACT_NULL, 1.0),
                    n1=40,
                    n2=40,
                    pairing=Pairing.MATCHED,
                    rho=0.5,
                    mc_reps=100,
                    tau=math.inf,
                    num_reps=199,
                    statistic_kind=StatKind.KS,
                ),
                6974783679954012135,
            ),
            (
                # an int gamma must key like the float it declares
                _spec(
                    OdcFamily(FamilyKind.POWER_NULL, 1),
                    n1=25,
                    n2=35,
                    mc_reps=30,
                    seed=2,
                    tau=0.3,
                    num_reps=99,
                ),
                10154096684281547860,
            ),
            # numbers of numpy types, ints for floats and floats of other widths
            # key as the Python int or float that their checker stores
            (
                _spec(
                    OdcFamily(FamilyKind.POWER_NULL, np.float64(0.5)),
                    n1=np.int32(12),
                    n2=np.int64(15),
                    mc_reps=np.int64(7),
                    num_reps=np.int64(99),
                    seed=1,
                ),
                6324891505131557870,
            ),
            (
                _spec(
                    OdcFamily(FamilyKind.POWER_ALT, np.float32(0.3)),
                    n1=20,
                    n2=25,
                    tau=np.float32(0.5),
                ),
                15971805675707545205,
            ),
            (
                _spec(
                    OdcFamily(FamilyKind.PARTIAL_CONTACT_NULL, np.int64(2)),
                    n1=30,
                    n2=30,
                    pairing=Pairing.MATCHED,
                    rho=np.float64(-0.25),
                    tau=math.inf,
                    statistic_kind=StatKind.KS,
                ),
                9670585859141204037,
            ),
            (
                _spec(
                    OdcFamily(FamilyKind.NORMAL_SHIFT_ALT, -1),
                    n1=8,
                    n2=9,
                    alpha=np.float32(0.1),
                    tau=1,
                    eta=np.float64(0.01),
                ),
                10533241425385787759,
            ),
            (
                _spec(
                    OdcFamily(FamilyKind.POWER_NULL, 0),
                    n1=10,
                    n2=10,
                    pairing=Pairing.MATCHED,
                    rho=0,
                    eta=0,
                    num_reps=np.uint16(9),
                ),
                7516140688612709960,
            ),
            (
                _spec(
                    OdcFamily(FamilyKind.POWER_ALT, 1),
                    n1=np.uint8(5),
                    n2=6,
                    mc_reps=3,
                    tau=np.int64(2),
                    eta=np.float32(0.5),
                ),
                10482805237725496059,
            ),
        ],
    )
    def test_scenario_key_pinned(self, spec, key):
        # the key seeds every replication stream, so its bytes must not drift
        from domtest.simulate import _scenario_key

        assert _scenario_key(spec) == key

    def test_replication_streams_separate(self):
        from domtest.simulate import replication_streams

        spec5 = _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), n1=20, n2=20, mc_reps=60, seed=5)
        spec6 = _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), n1=20, n2=20, mc_reps=60, seed=6)
        base = generate_dataset(spec5, replication_streams(spec5, 0)[0])
        # a different replication index and a different master seed both move the data
        other_rep = generate_dataset(spec5, replication_streams(spec5, 1)[0])
        other_seed = generate_dataset(spec6, replication_streams(spec6, 0)[0])
        assert not np.array_equal(base.x1, other_rep.x1)
        assert not np.array_equal(base.x1, other_seed.x1)
        # same index reproduces the same data
        again = generate_dataset(spec5, replication_streams(spec5, 0)[0])
        assert np.array_equal(base.x1, again.x1) and np.array_equal(base.x2, again.x2)

    def test_scenario_key_once_per_call(self, monkeypatch):
        import domtest.simulate as simulate

        spec = _spec(OdcFamily(FamilyKind.POWER_NULL, 0.0), n1=15, n2=15, mc_reps=5, num_reps=29)
        expected = rejection_rate(spec)
        calls = []
        key = simulate._scenario_key
        monkeypatch.setattr(simulate, "_scenario_key", lambda s: calls.append(s) or key(s))
        assert rejection_rate(spec) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("field", ["gamma", "rho"])
    def test_equal_specs_share_their_streams(self, field):
        # specs that compare and hash equal, here -0.0 against 0.0, store the
        # same 0.0, so they key alike and draw the same streams
        from domtest.simulate import _scenario_key, replication_streams

        def spec(zero):
            gamma, rho = (zero, 0.0) if field == "gamma" else (0.0, zero)
            family = OdcFamily(FamilyKind.POWER_NULL, gamma)
            return _spec(family, n1=20, n2=20, pairing=Pairing.MATCHED, rho=rho, mc_reps=40,
                         num_reps=99, seed=3)

        neg, pos = spec(-0.0), spec(0.0)
        assert neg == pos and hash(neg) == hash(pos)
        assert math.copysign(1.0, neg.family.gamma) == math.copysign(1.0, neg.copula.rho) == 1.0
        assert _scenario_key(neg) == _scenario_key(pos)
        x_neg = generate_dataset(neg, replication_streams(neg, 0)[0])
        x_pos = generate_dataset(pos, replication_streams(pos, 0)[0])
        assert x_neg.x1.tobytes() + x_neg.x2.tobytes() == x_pos.x1.tobytes() + x_pos.x2.tobytes()
        assert rejection_rate(neg) == rejection_rate(pos)

    def test_strong_alternative_rejects_often(self):
        spec = _spec(
            OdcFamily(FamilyKind.POWER_ALT, 0.5),
            n1=100,
            n2=100,
            mc_reps=40,
            seed=1,
            tau=0.75,
            num_reps=199,
        )
        result = rejection_rate(spec)
        assert result.rate > 0.9
        assert result.reps == 40
        assert_allclose(
            result.std_error, math.sqrt(result.rate * (1 - result.rate) / 40), rtol=1e-12
        )

    def test_null_rarely_rejects(self):
        spec = _spec(
            OdcFamily(FamilyKind.POWER_NULL, 1.0),
            n1=50,
            n2=50,
            mc_reps=60,
            seed=2,
            num_reps=199,
        )
        assert rejection_rate(spec).rate <= 0.05


class TestNormalFunctions:
    """The normal CDF and quantile behind the normal families and the Gaussian
    copula, against adaptive quadrature of the density."""

    @pytest.mark.parametrize("gamma", [-0.5, 0.3, 1.0])
    def test_normal_alt_against_quadrature_reference(self, gamma):
        family = OdcFamily(kind=FamilyKind.NORMAL_SHIFT_ALT, gamma=gamma)
        for u in (0.001, 0.1, 0.5, 0.975, 0.999):
            expected = normal_cdf_ref(math.exp(gamma) * normal_quantile_ref(u))
            assert abs(odc_family_eval(family, u) - expected) <= 1e-8

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_partial_null_against_quadrature_reference(self, gamma):
        family = OdcFamily(kind=FamilyKind.PARTIAL_CONTACT_NULL, gamma=gamma)
        for u in (0.001, 0.1, 0.3, 0.4999):
            expected = normal_cdf_ref(math.exp(gamma) * normal_quantile_ref(u))
            assert abs(odc_family_eval(family, u) - expected) <= 1e-8

    def test_opposite_shifts_are_inverse_curves(self):
        rng = np.random.default_rng(68)
        u = rng.uniform(1e-3, 1 - 1e-3, size=200)
        up = OdcFamily(kind=FamilyKind.NORMAL_SHIFT_ALT, gamma=0.5)
        down = OdcFamily(kind=FamilyKind.NORMAL_SHIFT_ALT, gamma=-0.5)
        assert_allclose(odc_family_eval(down, odc_family_eval(up, u)), u, rtol=0, atol=1e-7)

    def test_gaussian_copula_margins_against_reference(self):
        # the copula's uniforms are the normal CDF of the same rng's z draws
        u, v = _gaussian_copula(0.6, 12, np.random.default_rng(69))
        z = np.random.default_rng(69).standard_normal(24)
        z1, z2 = z[:12], z[12:]
        for got, zz in zip(u, z1):
            assert abs(got - normal_cdf_ref(float(zz))) <= 1e-9
        for got, a, b in zip(v, z1, z2):
            assert abs(got - normal_cdf_ref(float(0.6 * a + math.sqrt(1 - 0.36) * b))) <= 1e-9
