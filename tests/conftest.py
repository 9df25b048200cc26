import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, settings

from speclocaliser import (
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
)

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def circle40():
    # symbol e^{i theta} + 1/2: gap 1/2, winding 1
    return build_circle_model(40, {0: 0.5, 1: 1.0})


@pytest.fixture(scope="session")
def shift40():
    return build_weighted_shift_dirac(40, nu=1, sign=1)


@pytest.fixture(scope="session")
def qwz9():
    return build_qwz_model(box=9, mass=1.0)


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def banded_spy(monkeypatch) -> list:
    """The band shapes of LAPACK's zhbevd calls (scipy.linalg.eigvals_banded)."""
    calls, banded = [], sla.eigvals_banded

    def spy(band, *args, **kwargs):
        calls.append(band.shape)
        return banded(band, *args, **kwargs)

    monkeypatch.setattr(sla, "eigvals_banded", spy)
    return calls


def splu_spy(monkeypatch) -> list:
    """The (dimension, column ordering) of every SuperLU factorization."""
    import scipy.sparse.linalg as spla

    calls, splu = [], spla.splu

    def spy(a, **kwargs):
        calls.append((a.shape[0], kwargs["permc_spec"]))
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return calls
