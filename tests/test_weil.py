import re

import numpy as np
import pytest

from oracles import cocycle_holds_at, cocycle_identity_loop, cocycle_loop, orbits_loop, weil_measures_loop
from sample_actions import cell_orbits, oracle_actions
from zakspace import weil
from zakspace.actions import make_action, translation_action
from zakspace.duals import irreps
from zakspace.errors import SizeMismatch
from zakspace.fixtures import (
    BUNDLED_ACTIONS,
    random_complex,
    z2_fixed_point,
    z2_swap,
    z2_swap_weighted,
)
from zakspace.groups import symmetric_group
from zakspace.weil import (
    bruhat_function,
    check_cocycle_identity,
    cocycle,
    mackey_bruhat_residual,
    orbital_mean,
    weil_residual,
    weil_structure,
)
from zakspace.zak import verify_roundtrip, verify_unitarity, weak_inversion_residual, zak, zak_inverse


def test_unit_weights_give_trivial_cocycle():
    coc = cocycle(z2_swap())
    assert np.allclose(coc.lam, 1.0)
    assert np.allclose(coc.q, 1.0)


def test_weighted_swap_cocycle_values():
    coc = cocycle(z2_swap_weighted())
    # lambda_1(a) = w(b)/w(a) = 2, lambda_1(b) = 1/2
    assert coc.lam[1, 0] == pytest.approx(2.0)
    assert coc.lam[1, 1] == pytest.approx(0.5)
    assert coc.q[0] == pytest.approx(1.0)
    assert coc.q[1] == pytest.approx(0.5)


def test_bruhat_free_and_fixed():
    beta = bruhat_function(z2_swap())
    assert np.allclose(beta, [1.0, 0.0])
    beta = bruhat_function(z2_fixed_point())
    assert beta[2] == pytest.approx(0.5)


def test_bruhat_orbital_mean_is_one():
    for make in BUNDLED_ACTIONS.values():
        action = make()
        beta = bruhat_function(action)
        means = orbital_mean(action, beta)
        assert np.allclose(means, 1.0, atol=1e-12)


def test_orbital_mean_values():
    action = z2_swap()
    assert orbital_mean(action, [1.0, 1.0])[0] == pytest.approx(2.0)
    assert orbital_mean(action, [1.0, 0.0])[0] == pytest.approx(1.0)
    fp = z2_fixed_point()
    means = orbital_mean(fp, [0.0, 0.0, 1.0])
    assert means[1] == pytest.approx(2.0)  # both group elements hit the fixed point


def test_orbital_mean_size_check():
    with pytest.raises(SizeMismatch):
        orbital_mean(z2_swap(), [1.0, 2.0, 3.0])


def test_weil_measure_values():
    s = weil_structure(z2_swap())
    assert s.decomp.orbit_measure[0] == pytest.approx(1.0)
    s = weil_structure(z2_fixed_point())
    assert s.decomp.fd_measure[2] == pytest.approx(0.5)


def test_beta_reproduction_identity():
    # A(beta * (A f on orbits)) = A f, the projection property of beta
    rng = np.random.default_rng(3)
    for make in BUNDLED_ACTIONS.values():
        action = make()
        f = random_complex(rng, action.npoints)
        means = orbital_mean(action, f)
        beta = bruhat_function(action)
        dec = weil_structure(action).decomp
        lifted = beta * means[dec.orbit_id]
        again = orbital_mean(action, lifted)
        assert np.max(np.abs(again - means)) < 1e-12 * max(1.0, np.max(np.abs(means)))


def test_weil_and_mackey_bruhat_residuals():
    rng = np.random.default_rng(11)
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        for _ in range(20):
            f = random_complex(rng, action.npoints)
            assert weil_residual(action, f) < 1e-12, name
            assert mackey_bruhat_residual(action, f) < 1e-12, name


# ---------------------------------------------------------------------------
# one structure per action, checked against the loops in oracles.py


def test_structure_is_bitwise_the_loops():
    for name, action in oracle_actions().items():
        s = weil_structure(action)
        decomp = orbits_loop(action)
        coc = cocycle_loop(action, decomp)
        orbit_measure, fd_measure = weil_measures_loop(action, coc, decomp)
        assert np.array_equal(s.cocycle.lam, coc.lam), name
        assert np.array_equal(s.cocycle.q, coc.q), name
        assert np.array_equal(s.decomp.orbit_measure, orbit_measure), name
        assert s.decomp.fd_measure == fd_measure, name


def test_cocycle_check_fails_at_the_loops_pair():
    """One lambda entry scaled: the loop and the generator check both raise, and
    the pair the check names is one the loop's test fails at."""
    raised = 0
    for name, action in oracle_actions().items():
        group = action.group
        inv_perm = action.perm[group.inverses]
        lam = cocycle(action).lam
        check_cocycle_identity(group, inv_perm, lam)  # the true cocycle passes
        for g, x, factor in ((1, 0, 1.5), (group.order - 1, action.npoints - 1, 0.9), (0, 1, 1 + 1e-9)):
            bad = lam.copy()
            bad[g % group.order, x % action.npoints] *= factor
            with pytest.raises(AssertionError):
                cocycle_identity_loop(group, inv_perm, bad)
            with pytest.raises(AssertionError) as got:
                check_cocycle_identity(group, inv_perm, bad)
            g1, g2 = map(int, re.fullmatch(r"cocycle identity fails at \((\d+),(\d+)\)", str(got.value)).groups())
            assert not cocycle_holds_at(group, inv_perm, bad, g1, g2), (name, g, x, factor)
            raised += 1
    assert raised == 3 * len(oracle_actions())


def test_structure_arrays_are_read_only():
    s = weil_structure(z2_fixed_point())
    for arr in (s.cocycle.lam, s.cocycle.q, s.point_measure, s.inv_perm, s.decomp.orbit_measure):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_one_structure_per_action(monkeypatch):
    builds = []
    real = weil.cocycle

    def counted(action, decomp=None):
        builds.append(action)
        return real(action, decomp)

    monkeypatch.setattr(weil, "cocycle", counted)
    action = cell_orbits()
    dual = irreps(action.group)
    f = random_complex(np.random.default_rng(0), action.npoints)
    coeffs = zak(action, f, dual)
    zak_inverse(coeffs)
    verify_unitarity(coeffs, f)
    verify_roundtrip(action, f, dual)
    weil_residual(action, f)
    assert builds == [action]

    s4 = translation_action(symmetric_group(4))
    g = random_complex(np.random.default_rng(1), s4.npoints)
    weak_inversion_residual(s4, g, g.conj(), irreps(s4.group))
    assert builds == [action, s4]

    again = make_action(action.group, action.perm, action.weights)
    zak(again, f, dual)
    zak(again, f, dual)
    assert builds == [action, s4, again]
