import numpy as np
import pytest

from zakspace.bloch import (
    band_structure,
    band_union_residual,
    bloch_fields,
    block_diagonalize,
    check_invariance,
    ring_hamiltonian,
    ring_translation_action,
    symmetry_adapted_basis,
    zak_conjugation_residual,
)
from zakspace.duals import irreps
from zakspace.errors import NotHermitian, NotInvariant, ShapeMismatch
from zakspace.fixtures import c6_ring, d3_flags, random_complex
from zakspace.zak import zak


def circulant_6(t=1.0, v=0.0):
    return ring_hamiltonian(t, 1, 6, [v])


def test_check_invariance_circulant():
    action = c6_ring()
    op = check_invariance(action, circulant_6())
    assert op.matrix.shape == (6, 6)


def test_orbit_constant_potential_ok():
    action = d3_flags()
    v = np.eye(6) * 2.5  # one orbit: any constant diagonal is invariant
    check_invariance(action, v)


def test_orbit_breaking_potential_rejected():
    action = c6_ring()
    v = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotInvariant):
        check_invariance(action, v)


def test_non_hermitian_rejected():
    action = c6_ring()
    h = circulant_6()
    h[0, 1] = 5.0
    with pytest.raises(NotHermitian):
        check_invariance(action, h)


def test_c6_circulant_blocks_are_cosines():
    action = c6_ring()
    dual = irreps(action.group)
    op = check_invariance(action, circulant_6(t=1.0, v=0.5))
    bd = block_diagonalize(op, dual)
    got = sorted(float(b[0][0, 0].real) for b in bd.blocks.values())
    expected = sorted(-2.0 * np.cos(2.0 * np.pi * j / 6.0) + 0.5 for j in range(6))
    assert np.allclose(got, expected, atol=1e-10)
    assert bd.off_block_residual < 1e-9


def test_identity_blocks_identity():
    action = d3_flags()
    dual = irreps(action.group)
    bd = block_diagonalize(check_invariance(action, np.eye(6)), dual)
    for bs in bd.blocks.values():
        for b in bs:
            assert np.max(np.abs(b - np.eye(b.shape[0]))) < 1e-10


def test_d3_invariant_operator_blocks():
    action = d3_flags()
    group = action.group
    dual = irreps(group)
    # group-averaged random Hermitian: guaranteed invariant
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    raw = raw + raw.conj().T
    h = np.zeros_like(raw)
    for g in group.elements():
        pg = action.permutation_matrix(g)
        h += pg @ raw @ pg.T
    op = check_invariance(action, h)
    bd = block_diagonalize(op, dual)
    sizes = sorted(b.shape[0] for bs in bd.blocks.values() for b in bs)
    assert sizes == [1, 1, 2, 2]
    assert bd.repetition_residual() < 1e-9
    # spectrum conservation against the dense solver
    dense = np.linalg.eigvalsh(h)
    assert np.max(np.abs(bd.spectrum() - dense)) < 1e-9 * max(1.0, np.linalg.norm(h))


def test_zak_intertwines_operator_with_blocks():
    action = d3_flags()
    dual = irreps(action.group)
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    raw = raw + raw.conj().T
    h = sum(
        action.permutation_matrix(g) @ raw @ action.permutation_matrix(g).T
        for g in action.group.elements()
    )
    op = check_invariance(action, h)
    scale = np.linalg.norm(h)
    for _ in range(20):
        f = random_complex(rng, 6)
        assert zak_conjugation_residual(op, dual, f) < 1e-9 * scale


def test_band_m1_cosine():
    bs = band_structure(t=1.0, m=1, n=6, onsite=[0.0])
    assert np.allclose(
        sorted(bs.bands.ravel()), sorted(-2.0 * np.cos(2.0 * np.pi * np.arange(6) / 6))
    )
    assert band_union_residual(bs) < 1e-10


def test_constant_shift():
    base = band_structure(t=1.0, m=2, n=5, onsite=[0.0, 0.0])
    shifted = band_structure(t=1.0, m=2, n=5, onsite=[0.7, 0.7])
    assert np.allclose(shifted.bands, base.bands + 0.7, atol=1e-12)


def test_dimer_gap_and_union():
    delta = 0.6
    bs = band_structure(t=1.0, m=2, n=8, onsite=[delta, -delta])
    # band edge theta = pi: hopping amplitude vanishes, gap is exactly 2 delta
    edge = bs.bands[4]  # j = N/2
    assert edge[1] - edge[0] == pytest.approx(2 * delta, abs=1e-10)
    assert band_union_residual(bs) < 1e-9
    # every k keeps the two bands separated by at least the gap
    assert np.min(bs.bands[:, 1] - bs.bands[:, 0]) >= 2 * delta - 1e-10


def test_bands_even_in_k():
    bs = band_structure(t=1.0, m=3, n=8, onsite=[0.0, 0.4, -0.1])
    for j in range(1, 8):
        assert np.array_equal(bs.bands[j], bs.bands[-j])


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 3), (3, 8), (4, 9), (2, 64), (5, 101)])
def test_half_zone_rows_are_the_full_zone_solve_and_mirror_bitwise(m, n):
    from oracles import bands_full_zone

    rng = np.random.default_rng(7 * m + n)
    t, onsite = float(rng.normal()), rng.normal(size=m)
    bs = band_structure(t, m, n, onsite)
    assert bs.bands.shape == (n, m) and bs.k_values.shape == (n,)
    assert np.array_equal(bs.bands[: n // 2 + 1], bands_full_zone(t, m, n, onsite)[: n // 2 + 1])
    assert np.array_equal(bs.bands[1:], bs.bands[:0:-1])  # row N - j is row j
    assert np.array_equal(bs.k_values, 2.0 * np.pi * np.arange(n) / (n * m))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 20000])
def test_band_structure_solves_blocks_zero_to_half_n(n, monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        solved.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    band_structure(1.0, 2, n, [0.3, -0.3])
    assert solved == [n // 2 + 1]


def test_bands_even_check_solves_the_minus_k_blocks_itself():
    # rows j and N - j shifted together read as even to a row-against-row comparison
    from zakspace.suite import check_bands_even

    bs = band_structure(t=1.0, m=3, n=9, onsite=[0.0, 0.4, -0.1])
    assert check_bands_even("even", bs).passed
    bs.bands[2] += 1e-8
    bs.bands[7] += 1e-8
    assert np.array_equal(bs.bands[1:], bs.bands[:0:-1])
    report = check_bands_even("even", bs)
    assert not report.passed and report.residual == pytest.approx(1e-8, rel=1e-3)


def test_ring_action_invariance():
    h = ring_hamiltonian(1.0, 2, 4, [0.3, -0.3])
    action = ring_translation_action(2, 4)
    check_invariance(action, h)


def test_bloch_fields_invariant_function():
    action = c6_ring()
    dual = irreps(action.group)
    f = np.full(6, 2.0 + 1.0j)
    bf = bloch_fields(action, f, dual)
    assert bf.field_norm("chi0") > 1.0
    for label in dual.labels[1:]:
        assert bf.field_norm(label) < 1e-12


def test_bloch_fields_single_wave():
    action = c6_ring()
    dual = irreps(action.group)
    # a chi_j-modulated orbit function lights up exactly one field
    j = 2
    f = np.exp(-2j * np.pi * j * np.arange(6) / 6)
    bf = bloch_fields(action, f, dual)
    hot = [label for label in dual.labels if bf.field_norm(label) > 1e-9]
    assert len(hot) == 1


def test_bloch_fields_roundtrip_random():
    action = d3_flags()
    dual = irreps(action.group)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_complex(rng, 6)
        bf = bloch_fields(action, f, dual)
        assert bf.reconstruction_residual < 1e-11


def test_chain_blocks_are_classic_zak_conjugation():
    # Z(H f)(., j) = H_j Z f(., j): the Bloch block is what the lattice
    # Zak transform sees, wave index by wave index
    from zakspace.bloch import bloch_block
    from zakspace.lattice import classic_zak

    rng = np.random.default_rng(3)
    t, m, n = 1.0, 3, 4
    onsite = np.array([0.2, -0.5, 0.1])
    h = ring_hamiltonian(t, m, n, onsite)
    for _ in range(20):
        f = random_complex(rng, m * n)
        zf = classic_zak(f, cells=m).values
        zhf = classic_zak(h @ f, cells=m).values
        for j in range(n):
            theta = 2.0 * np.pi * j / n
            block = bloch_block(t, m, theta, onsite)
            assert np.max(np.abs(zhf[:, j] - block @ zf[:, j])) < 1e-10


def test_band_structure_parallel_map_identical():
    bs1 = band_structure(t=1.0, m=2, n=16, onsite=[0.3, -0.3], jobs=1)
    bs4 = band_structure(t=1.0, m=2, n=16, onsite=[0.3, -0.3], jobs=4)
    assert np.array_equal(bs1.bands, bs4.bands)


@pytest.mark.parametrize(
    "t, onsite",
    [(np.nan, [0.5, -0.5]), (np.inf, [0.5, -0.5]), (1.0, [0.5, np.nan]), (1.0, [-np.inf, 0.5])],
)
def test_band_structure_rejects_non_finite_input(t, onsite):
    with pytest.raises(ShapeMismatch, match="finite"):
        band_structure(t, 2, 4, onsite)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 7), (2, 1), (2, 6), (3, 9), (4, 64)])
def test_band_structure_matches_block_loop_oracle(m, n):
    from oracles import bands_loop, bloch_block_loop
    from zakspace.bloch import bloch_block

    rng = np.random.default_rng(m * 100 + n)
    t, onsite = float(rng.normal()), rng.normal(size=m)
    bs = band_structure(t, m, n, onsite)
    assert bs.bands.shape == (n, m)
    assert np.max(np.abs(bs.bands - bands_loop(t, m, n, onsite))) <= 1e-12
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    assert np.array_equal(bloch_block(t, m, theta, onsite), bloch_block_loop(t, m, theta, onsite))


# ---------------------------------------------------------------------------
# the batched basis and invariance check against their loops in oracles.py


def _conjugated(dual, rng):
    """An equivalent dual in a random unitary basis, so fixed spaces are not coordinate axes."""
    from zakspace.duals import DualObject

    out = []
    for s in dual.irreps:
        q, _ = np.linalg.qr(rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim)))
        out.append(s.conjugated(q))
    return DualObject(dual.group, out)


def test_symmetry_adapted_basis_matches_the_per_point_loop():
    from oracles import symmetry_adapted_basis_loop
    from sample_actions import oracle_actions

    rng = np.random.default_rng(60)
    for name, action in oracle_actions().items():
        dual = irreps(action.group)
        for d in (dual, _conjugated(dual, rng)):
            basis, layout = symmetry_adapted_basis(action, d)
            want_basis, want_layout = symmetry_adapted_basis_loop(action, d)
            assert layout == want_layout, name
            assert basis.shape == want_basis.shape, name
            assert np.max(np.abs(basis - want_basis)) <= 1e-12, name


def _averaged(action, raw, elements):
    """raw averaged over the given group elements, invariant under the subgroup they form."""
    return sum(action.permutation_matrix(g) @ raw @ action.permutation_matrix(g).T for g in elements)


def test_check_invariance_fails_at_the_dense_loops_element():
    from oracles import check_invariance_dense
    from planted import assert_same_outcome, outcome
    from sample_actions import oracle_actions
    from zakspace.groups import generated_subgroup

    rng = np.random.default_rng(61)
    failed = set()
    for name, action in oracle_actions().items():
        if action.npoints > 64:
            continue
        raw = rng.normal(size=(action.npoints,) * 2) + 1j * rng.normal(size=(action.npoints,) * 2)
        raw = raw + raw.conj().T
        group = action.group
        for gens in ([], [group.order - 1], list(group.elements())):
            h = _averaged(action, raw, generated_subgroup(group, gens))
            got = outcome(check_invariance, action, h)
            assert_same_outcome(got, outcome(check_invariance_dense, action, h), lambda a, b: True)
            failed.add(got[0])
            if got[0] == "raised":
                assert got[1] is NotInvariant
    assert failed == {"raised", "returned"}
