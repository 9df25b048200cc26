"""The two frozen signs and the oracle dispatch built on them."""

import pytest

from speclocaliser import (
    EVEN_SIGN,
    ODD_SIGN,
    LocaliserParams,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    chern_number_fhs,
    fredholm_index_graded,
    oracle_pairing,
    pairing,
    qwz_bloch,
    winding_number,
)


class TestOracleDispatch:
    def test_raw_values(self, qwz9):
        circle2 = build_circle_model(20, {2: 1.0, 0: 0.3})
        assert winding_number(circle2.params["symbol"]) == 2
        assert chern_number_fhs(qwz_bloch(qwz9.params["mass"])) == 1
        shift = build_weighted_shift_dirac(10, nu=2)
        assert fredholm_index_graded(shift.graded()) == -2

    def test_pairing_applies_the_odd_sign(self):
        circle2 = build_circle_model(20, {2: 1.0, 0: 0.3})
        assert oracle_pairing(circle2) == -2

    def test_pairing_applies_the_even_sign(self, qwz9):
        assert oracle_pairing(qwz9) == 1

    def test_graded_route_has_no_free_sign(self):
        plus = build_weighted_shift_dirac(10, nu=1, sign=1)
        minus = build_weighted_shift_dirac(10, nu=1, sign=-1)
        assert oracle_pairing(plus) == -1
        # K = -identity: signature and index correction cancel exactly
        assert oracle_pairing(minus) == 0

    def test_unknown_oracle_rejected(self):
        # a kind outside models.KINDS has no oracle
        model = build_circle_model(10, {1: 1.0})
        model.kind = "nonexistent"
        with pytest.raises(ValidationError, match="model kind 'nonexistent'"):
            oracle_pairing(model)


class TestCalibration:
    def test_derivation_matches_the_frozen_file(self):
        # the signs frozen in oracles.py reproduce the pairings they were calibrated on
        circle = build_circle_model(modes=40, symbol={0: 0.5, 1: 1.0})
        res = pairing(circle, LocaliserParams(kappa=0.05, rho=25.5))
        assert res.pairing == ODD_SIGN * winding_number(circle.params["symbol"]) == -1

        qwz = build_qwz_model(box=9, mass=1.0)
        res = pairing(qwz, LocaliserParams(kappa=0.75, rho=5.5))
        assert res.pairing == EVEN_SIGN * chern_number_fhs(qwz_bloch(1.0)) == 1
