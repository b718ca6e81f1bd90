import numpy as np
import pytest

from oracles import (
    invariance_support_loop,
    poisson_compact_loop,
    quotient_fourier_loop,
    reciprocal_space_loop,
)
from planted import assert_same_outcome, broken_dual, outcome
from zakspace.duals import dual_abelian, irreps
from zakspace.errors import NotCosetFunction, NotSubgroup
from zakspace.fixtures import random_complex, s3_transposition_subgroup
from zakspace.groups import cyclic_group, dihedral_group, generated_subgroup, left_cosets, symmetric_group
from zakspace.reciprocal import (
    invariance_support_residual,
    poisson_abelian_check,
    poisson_compact_check,
    quotient_fourier_check,
    reciprocal_space,
)


def test_trivial_subgroup_full_dual():
    group = symmetric_group(3)
    dual = irreps(group)
    rec = reciprocal_space(dual, [group.identity])
    assert set(rec.members) == set(dual.labels)
    for s in dual.irreps:
        assert np.max(np.abs(rec.projectors[s.label] - np.eye(s.dim))) < 1e-12


def test_z4_half_subgroup():
    group = cyclic_group(4)
    dual = irreps(group)
    rec = reciprocal_space(dual, [0, 2])
    # chi_j(2) = (-1)^j: members are the even characters
    assert rec.members == ["chi0", "chi2"]


def test_s3_transposition_reciprocal():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    rec = reciprocal_space(dual, h)
    dims = sorted(dual.by_label[m].dim for m in rec.members)
    assert dims == [1, 2]  # trivial and standard; the sign irrep drops out
    two = [m for m in rec.members if dual.by_label[m].dim == 2][0]
    assert rec.multiplicities[two] == 1


def test_projector_properties():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    rec = reciprocal_space(dual, h)
    for s in dual.irreps:
        p = rec.projectors[s.label]
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.trace(p).real == pytest.approx(rec.multiplicities[s.label], abs=1e-9)
        for hh in h:
            assert np.max(np.abs(s.matrices[hh] @ p - p @ s.matrices[hh])) < 1e-12


def test_orbital_mean_of_irrep_is_sigma_times_projector():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    rec = reciprocal_space(dual, h)
    for s in dual.irreps:
        p = rec.projectors[s.label]
        for g in group.elements():
            mean = np.mean([s.matrices[group.mul(g, hh)] for hh in h], axis=0)
            assert np.max(np.abs(mean - s.matrices[g] @ p)) < 1e-12


def test_poisson_abelian_z4():
    group = cyclic_group(4)
    f = np.zeros(4, dtype=complex)
    f[0] = 1.0
    lhs, rhs, resid = poisson_abelian_check(f, group, [0, 2], dual_abelian(group))
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(0.5)
    assert resid < 1e-12


def test_poisson_abelian_constant():
    group = cyclic_group(4)
    lhs, rhs, resid = poisson_abelian_check(np.ones(4), group, [0, 2], dual_abelian(group))
    assert lhs == pytest.approx(1.0)
    assert resid < 1e-12


def test_poisson_abelian_random_z6():
    group = cyclic_group(6)
    dual = dual_abelian(group)
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = random_complex(rng, 6)
        _, _, resid = poisson_abelian_check(f, group, [0, 3], dual)
        assert resid < 1e-12


def test_poisson_compact_s3_deltas():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    f = np.zeros(6, dtype=complex)
    f[group.identity] = 1.0
    lhs, rhs, resid = poisson_compact_check(f, group, h, dual)
    assert lhs == pytest.approx(0.5)
    assert rhs.real == pytest.approx(0.5, abs=1e-12)
    assert resid < 1e-12

    f = np.zeros(6, dtype=complex)
    f[h[1]] = 1.0  # the transposition itself
    lhs, rhs, resid = poisson_compact_check(f, group, h, dual)
    assert lhs == pytest.approx(0.5)
    assert resid < 1e-12


def test_poisson_compact_trivial_subgroup_is_inversion_at_e():
    group = symmetric_group(3)
    dual = irreps(group)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_complex(rng, 6)
        lhs, rhs, resid = poisson_compact_check(f, group, [group.identity], dual)
        assert resid < 1e-12
        assert lhs == pytest.approx(f[group.identity])


def test_poisson_compact_random():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, _, resid = poisson_compact_check(random_complex(rng, 6), group, h, dual)
        assert resid < 1e-12


def test_not_subgroup_raises():
    group = cyclic_group(4)
    with pytest.raises(NotSubgroup):
        poisson_abelian_check(np.ones(4), group, [0, 1], dual_abelian(group))


def test_quotient_fourier_constant():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    assert quotient_fourier_check(np.ones(3), group, h, dual) < 1e-12


def test_quotient_fourier_indicators():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    for i in range(3):
        f = np.zeros(3, dtype=complex)
        f[i] = 1.0
        assert quotient_fourier_check(f, group, h, dual) < 1e-12


def test_quotient_fourier_rejects_non_coset_function():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    f = np.arange(6, dtype=complex)  # not constant on cosets
    with pytest.raises(NotCosetFunction):
        quotient_fourier_check(f, group, h, dual)


def test_invariance_support():
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    rng = np.random.default_rng(4)
    raw = random_complex(rng, 6)
    # averaging over H from the left/right builds exactly invariant functions
    left = np.zeros(6, dtype=complex)   # f(hg) = f(g)
    right = np.zeros(6, dtype=complex)  # f(gh) = f(g)
    for g in group.elements():
        left[g] = sum(raw[group.mul(hh, g)] for hh in h)
        right[g] = sum(raw[group.mul(g, hh)] for hh in h)
    assert invariance_support_residual(left, dual, h, side="left") < 1e-10
    assert invariance_support_residual(right, dual, h, side="right") < 1e-10


def test_basis_independence_of_poisson_and_multiplicities():
    # conjugating every stored irrep by a random unitary must not move any
    # reported scalar: multiplicities, Poisson sides, quotient residuals
    from zakspace.duals import DualObject

    rng = np.random.default_rng(21)
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    conj = []
    for s in dual.irreps:
        q, _ = np.linalg.qr(
            rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        )
        conj.append(s.conjugated(q))
    dual2 = DualObject(group, conj)

    rec1, rec2 = reciprocal_space(dual, h), reciprocal_space(dual2, h)
    assert rec1.members == rec2.members
    assert rec1.multiplicities == rec2.multiplicities
    f = random_complex(rng, 6)
    lhs1, rhs1, _ = poisson_compact_check(f, group, h, dual)
    lhs2, rhs2, _ = poisson_compact_check(f, group, h, dual2)
    assert abs(lhs1 - lhs2) < 1e-12 and abs(rhs1 - rhs2) < 1e-12
    g = np.zeros(3, dtype=complex)
    g[1] = 1.0
    assert quotient_fourier_check(g, group, h, dual2) < 1e-11


# ---------------------------------------------------------------------------
# the thin callers of the core against their per-irrep loops in oracles.py


def _close(a, b):
    return all(abs(complex(x) - complex(y)) <= 1e-12 for x, y in zip(np.atleast_1d(a), np.atleast_1d(b)))


def _reciprocal_cases():
    """(group, subgroup, dual): every subgroup generated by one element, plus a two-generator one."""
    for group in (cyclic_group(6), symmetric_group(3), dihedral_group(5), symmetric_group(4)):
        dual = irreps(group)
        for g in group.elements():
            yield group, generated_subgroup(group, [g]), dual
        yield group, generated_subgroup(group, [1, group.order - 1]), dual


def _reciprocal_matches(rec, want) -> bool:
    members, projectors, mults = want
    return (
        rec.members == members
        and rec.multiplicities == mults
        and list(rec.projectors) == list(projectors)
        and all(np.max(np.abs(rec.projectors[k] - p)) <= 1e-12 for k, p in projectors.items())
    )


def test_reciprocal_checks_match_the_per_irrep_loops():
    rng = np.random.default_rng(50)
    for group, h, dual in _reciprocal_cases():
        assert _reciprocal_matches(reciprocal_space(dual, h), reciprocal_space_loop(dual, h))
        f = random_complex(rng, group.order)
        assert _close(poisson_compact_check(f, group, h, dual), poisson_compact_loop(f, group, h, dual))
        for side in ("left", "right"):
            assert _close(invariance_support_residual(f, dual, h, side), invariance_support_loop(f, dual, h, side))
        n_cosets = group.order // len(h)
        f_coset = random_complex(rng, n_cosets)
        assert _close(quotient_fourier_check(f_coset, group, h, dual), quotient_fourier_loop(f_coset, group, h, dual))


def test_quotient_check_rejects_at_the_loops_first_coset():
    rng = np.random.default_rng(51)
    group = symmetric_group(4)
    dual = irreps(group)
    h = generated_subgroup(group, [1])
    cosets = left_cosets(group, h)
    for picks in ([len(cosets) - 1], [3, len(cosets) - 1], list(range(0, len(cosets), 2))):
        f = np.empty(group.order, dtype=complex)
        for c, value in zip(cosets, random_complex(rng, len(cosets))):
            f[c] = value
        for i in picks:
            f[cosets[i][-1]] += 1e-6
        got = outcome(quotient_fourier_check, f, group, h, dual)
        assert got[:2] == ("raised", NotCosetFunction)
        assert_same_outcome(got, outcome(quotient_fourier_loop, f, group, h, dual), None)


def test_broken_duals_fail_where_the_loops_fail():
    """A dual off a homomorphism: projectors that are not projectors, support that does not vanish."""
    rng = np.random.default_rng(52)
    seen = set()
    for group, h, dual in _reciprocal_cases():
        for scale in (1e-8, 1e-3):
            # sigma(e) stays put: the Poisson sum is the inverse sum at e, which multiplies by it
            bad = broken_dual(dual, rng, [max(h[-1], 1)], scale)
            want = outcome(reciprocal_space_loop, bad, h)
            got = outcome(reciprocal_space, bad, h)
            # the trace printed in the message may differ in its last digit: the label must agree
            assert_same_outcome(got, want, _reciprocal_matches, lambda text: text.split(":")[0])
            f = random_complex(rng, group.order)
            f_coset = random_complex(rng, group.order // len(h))
            for new, old, args in (
                (poisson_compact_check, poisson_compact_loop, (f, group, h, bad)),
                (invariance_support_residual, invariance_support_loop, (f, bad, h)),
                (quotient_fourier_check, quotient_fourier_loop, (f_coset, group, h, bad)),
            ):
                want = outcome(old, *args)
                assert_same_outcome(outcome(new, *args), want, _close, lambda text: text.split(":")[0])
                seen.add(want[1] if want[0] == "raised" else None)
    assert seen == {None, AssertionError}
