"""The generator certificates of validate_irrep and check_invariance against the exhaustive oracles.

A certificate may only skip the exhaustive scan where the scan would pass,
so on every planted defect the library must raise what the oracle in
oracles.py raises, with the same message, or pass where it passes.  On
valid duals and operators the certificate decides alone: the exhaustive
fallback is never called.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import check_invariance_dense, validate_dual_loop
from planted import assert_same_outcome, outcome
from sample_actions import oracle_actions
from test_bloch import _averaged
from test_duals import alternating_group, quaternion_group, special_linear_group
from test_euclid import p4_spec
from zakspace import bloch, duals
from zakspace.bloch import check_invariance
from zakspace.duals import (
    HOM_ATOL,
    DualObject,
    UnitaryIrrep,
    _regular_splitting_dual,
    dual_abelian,
    irreps,
    irreps_by_induction,
    validate_dual,
)
from zakspace.actions import translation_action
from zakspace.errors import NotHermitian, NotInvariant, NotIrreducible
from zakspace.euclid import to_finite_action
from zakspace.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    make_group,
    symmetric_group,
)


def a4_with_klein_four():
    """A4 and its normal Klein four-group (the double transpositions and the identity)."""
    group = alternating_group(4)
    klein = [g for g in group.elements() if group.mul(g, g) == group.identity]
    return group, klein


ROUTES = {
    "catalog C12": lambda: dual_abelian(cyclic_group(12)),
    "dihedral D6": lambda: irreps(dihedral_group(6)),
    "product S3xC4": lambda: irreps(direct_product(symmetric_group(3), cyclic_group(4))),
    "Young S4": lambda: irreps(symmetric_group(4)),
    "induction A4": lambda: irreps_by_induction(*a4_with_klein_four()),
    "split Q8": lambda: _regular_splitting_dual(quaternion_group(), seed=0),
    "split SL(2,3)": lambda: _regular_splitting_dual(special_linear_group(3), seed=0),
}


@pytest.fixture(scope="module")
def route_duals():
    return {name: make() for name, make in ROUTES.items()}


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls of the exhaustive homomorphism check."""
    count = [0]
    scan = duals._pair_defect

    def counted(group, mats):
        count[0] += 1
        return scan(group, mats)

    monkeypatch.setattr(duals, "_pair_defect", counted)
    return count


def _implied_tolerance(group, d) -> float:
    """The generator defect at which validate_irrep's bound reaches HOM_ATOL, mu = 1."""
    return HOM_ATOL / (2 * d * max(group.max_word_length, 1))


def _planted(dual, i, g, entry, size):
    """The dual with size added to one entry of sigma_i(g)."""
    out = list(dual.irreps)
    mats = out[i].matrices.copy()
    mats[(g, *entry)] += size
    out[i] = UnitaryIrrep(out[i].label, out[i].dim, mats)
    return DualObject(dual.group, out)


@pytest.mark.parametrize("route", list(ROUTES))
def test_planted_entries_decide_as_the_exhaustive_oracle(route_duals, route):
    dual = route_duals[route]
    group = dual.group
    rng = np.random.default_rng(sum(map(ord, route)))
    for i in sorted({0, len(dual.irreps) - 1, int(rng.integers(len(dual.irreps)))}):
        d, label = dual.irreps[i].dim, dual.irreps[i].label
        g = int(rng.choice([x for x in group.elements() if x != group.identity]))
        entry = tuple(int(k) for k in rng.integers(d, size=2))
        implied = _implied_tolerance(group, d)
        for size in (0.5 * implied, 2 * implied, 0.5 * HOM_ATOL, HOM_ATOL, 2 * HOM_ATOL):
            for phase in (1.0, 1j):
                planted = _planted(dual, i, g, entry, phase * size)
                got = outcome(validate_dual, planted)
                assert_same_outcome(got, outcome(validate_dual_loop, planted), close=lambda a, b: True)
        assert got == ("raised", NotIrreducible, f"{label}: not a homomorphism")  # 2 HOM_ATOL is always caught


@pytest.mark.parametrize(
    "name, make",
    [
        ("S5", lambda: irreps(symmetric_group(5))),
        ("C256", lambda: irreps(cyclic_group(256))),
        ("D12", lambda: irreps(dihedral_group(12))),
        ("A4 induction", lambda: irreps_by_induction(*a4_with_klein_four())),
        ("p4 on a 6x6 torus", lambda: irreps(to_finite_action(p4_spec(), [[0.2, 0.3]], periods=[6, 6]).group)),
    ],
)
def test_valid_duals_never_reach_the_fallback(fallbacks, name, make):
    dual = make()
    fallbacks[0] = 0
    validate_dual(dual)
    assert fallbacks[0] == 0, name


def test_fallback_runs_when_the_certificate_cannot_decide(fallbacks, route_duals):
    dual = route_duals["Young S4"]
    validate_dual(dual)
    assert fallbacks[0] == 0
    i = len(dual.irreps) - 1
    planted = _planted(dual, i, 5, (0, 0), 2 * HOM_ATOL)
    with pytest.raises(NotIrreducible, match="not a homomorphism"):
        validate_dual(planted)
    assert fallbacks[0] == 1


def test_nan_entries_decide_as_the_exhaustive_oracle():
    """A NaN entry is rejected before any max over the products, where NaN > HOM_ATOL would let it pass."""
    dual = irreps(symmetric_group(4))
    planted = _planted(dual, 0, 3, (0, 0), np.nan)
    assert_same_outcome(outcome(validate_dual, planted), outcome(validate_dual_loop, planted), close=lambda a, b: True)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_dual_entries_are_not_irreducible(route_duals, entry):
    dual = route_duals["Young S4"]
    i = 2
    with pytest.raises(NotIrreducible, match=f"^{dual.irreps[i].label}: matrices not finite$"):
        validate_dual(_planted(dual, i, 3, (0, 0), entry))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_operators_are_not_hermitian(entry):
    action = translation_action(cyclic_group(4))
    with pytest.raises(NotHermitian, match="not finite"):
        check_invariance(action, np.full((4, 4), entry))
    h = np.eye(4, dtype=complex)
    h[1, 2] = entry
    with pytest.raises(NotHermitian, match="not finite"):
        check_invariance(action, h)


def test_trivial_group_has_word_length_zero_and_validates():
    trivial = make_group([[0]])
    assert trivial.max_word_length == 0
    validate_dual(irreps(trivial))


@pytest.mark.parametrize(
    "group, length",
    [(cyclic_group(256), 255), (cyclic_group(2), 1), (dihedral_group(5), None), (symmetric_group(5), None)],
)
def test_max_word_length_is_the_longest_shortest_word(group, length):
    """Against words grown one generator at a time from the identity, element by element."""
    best = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        new = []
        for x in frontier:
            for s in group.generators:
                y = group.mul(x, int(s))
                if y not in best:
                    best[y] = best[x] + 1
                    new.append(y)
        frontier = new
    assert len(best) == group.order
    assert group.max_word_length == max(best.values())
    if length is not None:
        assert group.max_word_length == length


# ---------------------------------------------------------------------------
# S6


S6_DIMS = [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
S6_PEAK_BYTES = 100 * 2**20


@pytest.fixture(scope="module")
def s6_dual():
    group = symmetric_group(6)
    tracemalloc.start()
    try:
        dual = irreps(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dual, peak


def test_s6_builds_and_validates_within_its_memory_bound(s6_dual):
    dual, peak = s6_dual
    assert sorted(s.dim for s in dual.irreps) == S6_DIMS
    assert peak <= S6_PEAK_BYTES, peak
    validate_dual(dual)


def test_planted_s6_defect_is_found_by_the_blocked_fallback(s6_dual, fallbacks):
    dual, _ = s6_dual
    i = next(k for k, s in enumerate(dual.irreps) if s.dim == 16)
    planted = _planted(dual, i, 100, (3, 7), 1e-8)
    with pytest.raises(NotIrreducible, match=f"{dual.irreps[i].label}: not a homomorphism"):
        validate_dual(planted)
    assert fallbacks[0] == 1


# ---------------------------------------------------------------------------
# check_invariance


@pytest.fixture(scope="module")
def invariant_operators():
    rng = np.random.default_rng(62)
    out = {}
    for name, action in oracle_actions().items():
        if action.npoints > 64:
            continue
        raw = rng.normal(size=(action.npoints,) * 2) + 1j * rng.normal(size=(action.npoints,) * 2)
        out[name] = (action, _averaged(action, raw + raw.conj().T, action.group.elements()))
    return out


def test_valid_operators_are_certified_on_generators(invariant_operators, monkeypatch):
    calls = [0]
    defect = bloch._conjugation_defect

    def counted(action, h, g):
        calls[0] += 1
        return defect(action, h, g)

    monkeypatch.setattr(bloch, "_conjugation_defect", counted)
    for name, (action, h) in invariant_operators.items():
        calls[0] = 0
        check_invariance(action, h)
        assert calls[0] == len(action.group.generators), name


def test_planted_operator_defects_decide_as_the_element_loop(invariant_operators):
    rng = np.random.default_rng(63)
    decided = set()
    for name, (action, h) in invariant_operators.items():
        if action.group.order == 1:
            continue
        m = action.npoints
        scale = max(1.0, float(np.linalg.norm(h)))
        implied = 1e-10 * scale / action.group.max_word_length
        i, j = (int(k) for k in rng.choice(m, size=2, replace=False))
        for size in (0.5 * implied, 2 * implied, 0.5e-10 * scale, 1e-10 * scale, 2e-10 * scale):
            planted = h.copy()
            planted[i, j] += size  # moved by some g, so ||P h P^T - h||_F >= size * sqrt(2)
            planted[j, i] += size
            got = outcome(check_invariance, action, planted)
            assert_same_outcome(got, outcome(check_invariance_dense, action, planted), lambda a, b: True)
            if got[0] == "raised":
                assert got[1] is NotInvariant
            decided.add(got[0])
    assert decided == {"raised", "returned"}
