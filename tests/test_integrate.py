import random

import mpmath
import pytest

from painleve_hh import (BranchSpec, ContractViolation, PhaseState, Scalar,
                         SingularityApproach, build_henon_heiles, build_series,
                         energy, integrate_numeric, state_from_series)


def _sys():
    return build_henon_heiles(Scalar.exact(-6), Scalar.exact(1))


def test_equilibrium_stays_put():
    zero = Scalar.exact(0)
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    end = integrate_numeric(_sys(), s0, Scalar.exact(2), Scalar.from_real("1e-18"))
    for v in (end.x, end.xt, end.y, end.yt):
        assert v.mag() < mpmath.mpf("1e-17")


def test_energy_drift_small_random_data():
    rng = random.Random(2024)
    tol = Scalar.from_real("1e-20")
    sys_ = _sys()
    for _ in range(3):
        s0 = PhaseState(
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(1),
        )
        end = integrate_numeric(sys_, s0, Scalar.exact(3), tol)
        drift = (energy(sys_, end) - energy(sys_, s0)).mag()
        assert drift <= 100 * tol.mag()


def test_series_cross_oracle():
    lam = Scalar.exact(1, 9)
    spec = BranchSpec(case="C165", lam=lam, root_branch="plus")
    sol = build_series(spec, 60)
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(3, 10), 256)
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(1, 2), 256)
    end = integrate_numeric(sol.system(), s_a, Scalar.exact(1, 2),
                            Scalar.from_real("1e-20"))
    diff = max((end.x - s_b.x).mag(), (end.xt - s_b.xt).mag(),
               (end.y - s_b.y).mag(), (end.yt - s_b.yt).mag())
    assert diff < mpmath.mpf("1e-15")


def test_backward_integration():
    lam = Scalar.exact(1, 9)
    spec = BranchSpec(case="C165", lam=lam, root_branch="plus")
    sol = build_series(spec, 50)
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(1, 2), 256)
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(3, 10), 256)
    end = integrate_numeric(sol.system(), s_a, Scalar.exact(3, 10),
                            Scalar.from_real("1e-18"))
    assert (end.y - s_b.y).mag() < mpmath.mpf("1e-14")


def test_singularity_guard():
    zero = Scalar.exact(0)
    s0 = PhaseState(Scalar.exact(1), zero, Scalar.exact(1), zero,
                    Scalar.exact(1, 2))
    with pytest.raises(SingularityApproach):
        # the path [-1/2, 1/2] passes through t = 0
        integrate_numeric(_sys(), s0, Scalar.exact(-1, 2),
                          Scalar.from_real("1e-16"))
    with pytest.raises(SingularityApproach):
        # endpoint closer to zero than tol**(1/4) = 1e-4
        integrate_numeric(_sys(), s0, Scalar.from_real("1e-5"),
                          Scalar.from_real("1e-16"))


def test_singularity_guard_measures_from_centre():
    zero = Scalar.exact(0)
    s0 = PhaseState(Scalar.exact(1), zero, Scalar.exact(1), zero,
                    Scalar.exact(3, 10))
    with pytest.raises(SingularityApproach, match="singularity at t=0.4"):
        integrate_numeric(_sys(), s0, Scalar.exact(1, 2),
                          Scalar.from_real("1e-20"), center=Scalar.exact(2, 5))


def test_order_contract():
    zero = Scalar.exact(0)
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    with pytest.raises(ContractViolation):
        integrate_numeric(_sys(), s0, Scalar.exact(2),
                          Scalar.from_real("1e-10"), order=4)
