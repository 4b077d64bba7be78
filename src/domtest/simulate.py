"""Data-generating processes and the Monte Carlo rejection-rate driver.

Datasets are built so the population dominance curve is a chosen parametric
family: the first sample is uniform on (0, 1) and the second applies the
curve to uniforms, which is without loss of generality because the tests are
rank-based. Matched pairs get their dependence from a Gaussian copula.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bootstrap import BootstrapConfig, run_test
from .odc import Pairing, TwoSampleData, _check_int, _check_member, _check_real

__all__ = [
    "FamilyKind",
    "OdcFamily",
    "CopulaKind",
    "CopulaSpec",
    "ScenarioSpec",
    "RateResult",
    "odc_family_eval",
    "generate_dataset",
    "rejection_rate",
]

# Uniform draws are clamped into the largest open interval of doubles so the
# normal quantile stays finite.
_UNIT_LO = 2.0**-53
_UNIT_HI = 1.0 - 2.0**-53


class FamilyKind(Enum):
    """Parametric dominance-curve families used in the simulation studies."""

    POWER_NULL = "power-null"
    PARTIAL_CONTACT_NULL = "partial-null"
    POWER_ALT = "power-alt"
    NORMAL_SHIFT_ALT = "normal-alt"


@dataclass(frozen=True)
class OdcFamily:
    kind: FamilyKind
    gamma: float = 0.0

    def __post_init__(self):
        _check_member("family kind", self.kind, FamilyKind)
        _check_real("gamma", self.gamma)
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.kind is not FamilyKind.NORMAL_SHIFT_ALT and self.gamma < 0.0:
            raise ValueError(f"{self.kind.value} requires gamma >= 0, got {self.gamma}")
        if self.kind is FamilyKind.POWER_ALT and self.gamma > 1.0:
            # u**(1 - gamma) exceeds 1 on (0, 1), so it is no dominance curve
            raise ValueError(f"power-alt requires gamma <= 1, got {self.gamma}")
        if self.kind in (FamilyKind.NORMAL_SHIFT_ALT, FamilyKind.PARTIAL_CONTACT_NULL):
            try:
                math.exp(self.gamma)  # the curve's normal-quantile scale
            except OverflowError:
                msg = f"{self.kind.value} needs exp(gamma) finite, got {self.gamma}"
                raise ValueError(msg) from None


class CopulaKind(Enum):
    PRODUCT = "product"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CopulaSpec:
    kind: CopulaKind = CopulaKind.PRODUCT
    rho: float = 0.0

    def __post_init__(self):
        _check_member("copula kind", self.kind, CopulaKind)
        _check_real("rho", self.rho)
        if self.kind is CopulaKind.GAUSSIAN and not (-1.0 < self.rho < 1.0):
            raise ValueError(f"Gaussian copula needs |rho| < 1, got {self.rho}")
        if self.kind is CopulaKind.PRODUCT and repr(float(self.rho)) != "0.0":
            raise ValueError(f"the product copula takes no rho, got {self.rho}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo scenario: a curve, sample sizes, dependence, and the
    bootstrap configuration applied to every replication."""

    family: OdcFamily
    n1: int
    n2: int
    copula: CopulaSpec
    pairing: Pairing
    mc_reps: int
    bootstrap: BootstrapConfig

    def __post_init__(self):
        for name in ("n1", "n2", "mc_reps"):
            _check_int(name, getattr(self, name), 1)
        for name, kind in [("family", OdcFamily), ("copula", CopulaSpec), ("pairing", Pairing),
                           ("bootstrap", BootstrapConfig)]:
            _check_member(name, getattr(self, name), kind)
        if self.pairing is Pairing.MATCHED and self.n1 != self.n2:
            raise ValueError("matched pairs need n1 == n2")
        if self.pairing is Pairing.INDEPENDENT and self.copula.kind is not CopulaKind.PRODUCT:
            raise ValueError("independent sampling uses the product copula")


@dataclass(frozen=True)
class RateResult:
    """Rejection rate with its binomial standard error."""

    rate: float
    std_error: float
    rejections: int
    reps: int


def odc_family_eval(family: OdcFamily, u):
    """Evaluate the family curve at ``u`` in (0, 1), elementwise on arrays."""
    from scipy.special import ndtr, ndtri

    arr = np.asarray(u, dtype=np.float64)
    if not ((arr > 0.0) & (arr < 1.0)).all():  # also rejects nan
        raise ValueError("family curves are defined on (0, 1) only")
    g = family.gamma
    if family.kind is FamilyKind.POWER_NULL:
        out = arr ** (1.0 + g)
    elif family.kind is FamilyKind.POWER_ALT:
        out = arr ** (1.0 - g)
    elif family.kind is FamilyKind.NORMAL_SHIFT_ALT:
        out = ndtr(math.exp(g) * ndtri(arr))
    else:
        out = np.where(arr < 0.5, ndtr(math.exp(g) * ndtri(np.minimum(arr, 0.5))), arr)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def _gaussian_copula(rho: float, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws from the Gaussian copula, all of ``z1`` before ``z2``."""
    from scipy.special import ndtr

    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    u = ndtr(z1)
    v = ndtr(rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
    return np.clip(u, _UNIT_LO, _UNIT_HI), np.clip(v, _UNIT_LO, _UNIT_HI)


def _copula_uniforms(spec: ScenarioSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if spec.pairing is Pairing.MATCHED and spec.copula.kind is CopulaKind.GAUSSIAN:
        return _gaussian_copula(spec.copula.rho, spec.n1, rng)
    u, v = rng.random(spec.n1), rng.random(spec.n2)
    return np.clip(u, _UNIT_LO, _UNIT_HI), np.clip(v, _UNIT_LO, _UNIT_HI)


def generate_dataset(spec: ScenarioSpec, rng: np.random.Generator) -> TwoSampleData:
    """Draw one dataset whose population dominance curve is ``spec.family``.

    The first sample is the uniform coordinate itself; the second pushes its
    uniform coordinate through the family curve, so the pair of marginals
    has exactly the requested curve.
    """
    u, v = _copula_uniforms(spec, rng)
    x2 = odc_family_eval(spec.family, v)
    return TwoSampleData(x1=u, x2=np.asarray(x2), pairing=spec.pairing)


def _key_parts(spec) -> list[str]:
    """Every field of a (nested) spec dataclass but ``seed``, in declaration
    order, formatted by its declared type so that int-valued floats read alike."""
    parts = []
    for f in dataclasses.fields(spec):
        if f.name == "seed":
            continue
        value = getattr(spec, f.name)
        if dataclasses.is_dataclass(value):
            parts += _key_parts(value)
        elif isinstance(value, Enum):
            parts.append(value.value)
        else:
            parts.append(repr(float(value)) if f.type == "float" else str(value))
    return parts


def _scenario_key(spec: ScenarioSpec) -> int:
    digest = hashlib.md5("|".join(_key_parts(spec)).encode("ascii"), usedforsecurity=False).digest()
    return int.from_bytes(digest[:8], "little")


def replication_streams(
    spec: ScenarioSpec, k: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (data, bootstrap) generators for replication ``k``.

    Seeds derive from the master seed, a scenario digest, and the replication
    index, so any assignment of replications to workers reproduces the same
    streams.
    """
    return _streams(spec.bootstrap.seed, _scenario_key(spec), k)


def _streams(seed: int, key: int, k: int) -> tuple[np.random.Generator, np.random.Generator]:
    data_seq, boot_seq = np.random.SeedSequence(entropy=[seed, key, k]).spawn(2)
    return np.random.default_rng(data_seq), np.random.default_rng(boot_seq)


def rejection_rate(spec: ScenarioSpec) -> RateResult:
    """Fraction of Monte Carlo replications in which the test rejects.

    Bit-reproducible for a fixed ``spec`` because every replication uses its
    own derived seed; the loop order carries no state between replications.
    The scenario digest is computed once per call, not once per replication.
    """
    key = _scenario_key(spec)
    rejections = 0
    for k in range(spec.mc_reps):
        data_rng, boot_rng = _streams(spec.bootstrap.seed, key, k)
        data = generate_dataset(spec, data_rng)
        report = run_test(data, spec.bootstrap, rng=boot_rng)
        rejections += int(report.reject)
    rate = rejections / spec.mc_reps
    se = math.sqrt(rate * (1.0 - rate) / spec.mc_reps)
    return RateResult(rate=rate, std_error=se, rejections=rejections, reps=spec.mc_reps)
