import importlib

import numpy as np
import pytest

from oracles import (
    character_zak_loop,
    character_zak_reconstruct_loop,
    check_invariants_loop,
    extended_zak_loop,
    extension_gap_loop,
    heisenberg_loop,
    image_norm_sq_loop,
    intertwining_loop,
    stabilizer_tables_loop,
    zak_inverse_loop,
    zak_loop,
)
from planted import assert_same_outcome, broken_dual, outcome, perturbed_coefficients
from sample_actions import oracle_actions
from zakspace.duals import irreps
from zakspace.errors import DualGroupMismatch, InvariantViolation, NotRepresentative, SizeMismatch
from zakspace.fixtures import (
    BUNDLED_ACTIONS,
    random_complex,
    s3_translation,
    z2_fixed_point,
    z2_swap,
)
from zakspace.actions import translation_action
from zakspace.groups import cyclic_group, dihedral_group
from zakspace.weil import weil_structure
from zakspace.zak import (
    ZakCoefficients,
    character_zak,
    character_zak_reconstruct,
    extended_zak,
    heisenberg_consistency_residual,
    intertwining_residual,
    stack_blocks,
    verify_roundtrip,
    verify_unitarity,
    weak_inversion_residual,
    zak,
    zak_inverse,
    zak_measure_eval,
)


def _dual_for(action):
    return irreps(action.group)


def test_swap_explicit_values():
    action = z2_swap()
    dual = _dual_for(action)
    f = np.array([2.0, 3.0], dtype=complex)
    coeffs = zak(action, f, dual)
    assert coeffs.value(0, "chi0") == pytest.approx(5.0)
    assert coeffs.value(0, "chi1") == pytest.approx(-1.0)


def test_fixed_point_vanishing():
    action = z2_fixed_point()
    dual = _dual_for(action)
    rng = np.random.default_rng(0)
    f = random_complex(rng, 3)
    coeffs = zak(action, f, dual)
    # chi1 is not trivial on the full stabilizer of the fixed point 2
    assert abs(coeffs.value(2, "chi1")) < 1e-12 * np.linalg.norm(f)
    assert coeffs.value(2, "chi0") == pytest.approx(2 * f[2])


def test_s3_delta_gives_identity_blocks():
    action = s3_translation()
    dual = _dual_for(action)
    f = np.zeros(6, dtype=complex)
    f[action.group.identity] = 1.0
    coeffs = zak(action, f, dual)
    for s in dual.irreps:
        assert np.max(np.abs(coeffs[(0, s.label)] - np.eye(s.dim))) < 1e-12


def test_dual_group_mismatch():
    action = z2_swap()
    wrong = irreps(cyclic_group(3))
    with pytest.raises(DualGroupMismatch):
        zak(action, np.zeros(2), wrong)


def test_extended_zak_consistency():
    rng = np.random.default_rng(1)
    for make in BUNDLED_ACTIONS.values():
        action = make()
        dual = _dual_for(action)
        f = random_complex(rng, action.npoints)
        for x in range(action.npoints):
            extended_zak(action, f, dual, x)  # raises on any mismatch


def test_extended_zak_swap_sign():
    action = z2_swap()
    dual = _dual_for(action)
    f = np.array([1.0, 4.0], dtype=complex)
    coeffs = zak(action, f, dual)
    ext = extended_zak(action, f, dual, 1)
    assert ext["chi1"][0, 0] == pytest.approx(-coeffs.value(0, "chi1"))


def test_roundtrip_all_bundled():
    rng = np.random.default_rng(2)
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        dual = _dual_for(action)
        for _ in range(20):
            f = random_complex(rng, action.npoints)
            rep = verify_roundtrip(action, f, dual)
            assert rep.passed, name


def test_roundtrip_delta_swap():
    action = z2_swap()
    dual = _dual_for(action)
    f = np.array([1.0, 0.0], dtype=complex)
    rec = zak_inverse(zak(action, f, dual))
    assert np.max(np.abs(rec - f)) < 1e-14


def test_unitarity_all_bundled():
    rng = np.random.default_rng(3)
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        dual = _dual_for(action)
        for _ in range(10):
            f = random_complex(rng, action.npoints)
            rep = verify_unitarity(zak(action, f, dual), f)
            assert rep.passed, name


def test_unitarity_fixed_point_budget():
    # mu_F at the fixed point is 1/2; the surviving character has |Z| = 2|f(c)|
    action = z2_fixed_point()
    dual = _dual_for(action)
    s = weil_structure(action)
    assert s.decomp.fd_measure[2] == pytest.approx(0.5)
    f = np.array([0.0, 0.0, 1.0], dtype=complex)
    coeffs = zak(action, f, dual)
    # total image mass: (1/2) * (1/2) * |2|^2 = 1 = |f(c)|^2
    assert coeffs.image_norm_sq() == pytest.approx(1.0)


def test_intertwining_exhaustive():
    rng = np.random.default_rng(4)
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        dual = _dual_for(action)
        f = random_complex(rng, action.npoints)
        assert intertwining_residual(action, f, dual) < 1e-12, name


def test_character_zak_abelian_equals_zak():
    action = z2_fixed_point()
    dual = _dual_for(action)
    rng = np.random.default_rng(5)
    f = random_complex(rng, 3)
    chars = character_zak(action, f, dual)
    coeffs = zak(action, f, dual)
    for key, val in chars.items():
        assert val == pytest.approx(coeffs.value(*key), abs=1e-13)


def test_character_zak_s3_delta_dims():
    action = s3_translation()
    dual = _dual_for(action)
    f = np.zeros(6, dtype=complex)
    f[action.group.identity] = 1.0
    chars = character_zak(action, f, dual)
    got = sorted(round(chars[(0, s.label)].real) for s in dual.irreps)
    assert got == [1, 1, 2]


def test_character_reconstruction():
    rng = np.random.default_rng(6)
    action = s3_translation()
    dual = _dual_for(action)
    f = random_complex(rng, 6)
    _, resid = character_zak_reconstruct(action, f, dual)
    assert resid < 1e-11


def test_zak_measure_delta_free_action():
    action = z2_swap()
    dual = _dual_for(action)
    phi = np.array([1.0, 0.0], dtype=complex)
    out = zak_measure_eval(action, dual, 0, "chi1", phi)
    assert out[0, 0] == pytest.approx(1.0)  # only g = e contributes


def test_zak_measure_not_representative():
    action = z2_swap()
    dual = _dual_for(action)
    with pytest.raises(NotRepresentative):
        zak_measure_eval(action, dual, 1, "chi0", np.zeros(2))


def test_zak_measure_eigenvalue_law():
    # evaluating on the g-translate twists by sigma(g) on the right
    for make in (z2_swap, s3_translation):
        action = make()
        dual = _dual_for(action)
        rng = np.random.default_rng(7)
        phi = random_complex(rng, action.npoints)
        for g in action.group.elements():
            shifted = action.pullback(action.group.inv(g), phi)
            for s in dual.irreps:
                lhs = zak_measure_eval(action, dual, 0, s.label, shifted)
                rhs = zak_measure_eval(action, dual, 0, s.label, phi) @ s.matrices[g]
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_weak_inversion():
    rng = np.random.default_rng(8)
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        dual = _dual_for(action)
        f = random_complex(rng, action.npoints)
        phi = random_complex(rng, action.npoints)
        assert weak_inversion_residual(action, f, phi, dual) < 1e-11, name


def test_heisenberg_second_path():
    action = z2_fixed_point()
    dual = _dual_for(action)
    rng = np.random.default_rng(9)
    f = random_complex(rng, 3)
    assert heisenberg_consistency_residual(action, f, dual) < 1e-13


def test_size_mismatch():
    action = z2_swap()
    dual = _dual_for(action)
    with pytest.raises(SizeMismatch):
        zak(action, np.zeros(5), dual)


def test_projective_multiplier_identity():
    # xi_(g,chi) xi_(g',chi') = chi(g') chi'(g) xi_(gg', chi chi'): the
    # modulated translates compose projectively with a scalar multiplier
    action = z2_fixed_point()
    group = action.group
    dual = _dual_for(action)
    rng = np.random.default_rng(20)
    f = random_complex(rng, 3)

    def xi(g, chi_vals, vec):
        return action.pullback(g, vec) * np.conj(chi_vals[g])

    chars = {s.label: s.matrices[:, 0, 0] for s in dual.irreps}
    labels = dual.labels
    for g in group.elements():
        for gp in group.elements():
            for la in labels:
                for lb in labels:
                    lhs = xi(g, chars[la], xi(gp, chars[lb], f))
                    prod_char = chars[la] * chars[lb]
                    mult = chars[la][gp] * chars[lb][g]
                    rhs = mult * xi(group.mul(g, gp), prod_char, f)
                    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_stabilizer_absorption():
    # Z(x0, sigma) sigma(h) = Z(x0, sigma) for h in the stabilizer of x0
    action = z2_fixed_point()
    dual = _dual_for(action)
    rng = np.random.default_rng(21)
    f = random_complex(rng, 3)
    coeffs = zak(action, f, dual)
    for s in dual.irreps:
        block = coeffs[(2, s.label)]
        for h in (0, 1):  # both elements stabilize the fixed point 2
            assert np.max(np.abs(block @ s.matrices[h] - block)) < 1e-12


def test_zak_measure_eigenlaw_on_demand():
    from zakspace.zak import zak_measure_eigenlaw_residual

    rng = np.random.default_rng(22)
    for make in (z2_fixed_point, s3_translation):
        action = make()
        dual = _dual_for(action)
        phi = random_complex(rng, action.npoints)
        for label in dual.labels:
            assert zak_measure_eigenlaw_residual(action, dual, 0, label, phi) < 1e-12


# ---------------------------------------------------------------------------
# the batched transforms against the per-block loops in oracles.py


def _assert_zak_matches_loops(action, dual, f, name):
    s = weil_structure(action)
    reps = s.decomp.representatives
    coeffs = zak(action, f, dual)
    blocks = zak_loop(action, f, dual, reps)
    assert list(coeffs.data) == list(blocks), name
    for key, block in blocks.items():
        assert np.max(np.abs(coeffs[key] - block)) <= 1e-12, (name, key)
    projectors, members = stabilizer_tables_loop(action, dual, reps)
    assert coeffs.stab_members == members, name
    for (d, idx, _mats), proj in zip(dual.dim_classes, coeffs.projectors):
        for j, i in enumerate(idx):
            for r, x0 in enumerate(reps):
                assert np.max(np.abs(proj[r, j] - projectors[(x0, dual.irreps[i].label)])) <= 1e-12
    want = zak_inverse_loop(action, dual, s.decomp, blocks, members)
    assert np.max(np.abs(zak_inverse(coeffs) - want)) <= 1e-12, name
    # the unitarity residual is reported by suite all, so its sum keeps its order
    assert coeffs.image_norm_sq() == image_norm_sq_loop(s, dual, blocks), name


def test_batched_zak_matches_loops():
    rng = np.random.default_rng(30)
    for name, action in oracle_actions().items():
        dual = _dual_for(action)
        for _ in range(3):
            _assert_zak_matches_loops(action, dual, random_complex(rng, action.npoints), name)


def test_check_invariants_fails_at_the_loops_block():
    rng = np.random.default_rng(31)
    failures = set()
    for name, action in oracle_actions().items():
        dual = _dual_for(action)
        f = random_complex(rng, action.npoints)
        coeffs = zak(action, f, dual)
        projectors, members = stabilizer_tables_loop(action, dual, coeffs.structure.decomp.representatives)
        # only blocks of representatives with a nontrivial stabilizer can break a law
        keys = [key for key, p in projectors.items() if not np.allclose(p, np.eye(len(p)))]
        if not keys:
            continue
        for picks, backwards in (([keys[-1]], False), ([keys[len(keys) // 2], keys[-1]], False),
                                 (keys[::2], False), (keys[::2], True)):
            data = {key: np.array(block) for key, block in coeffs.data.items()}
            for key in picks:
                data[key] = data[key] + 1e-6 * random_complex(rng, data[key].size).reshape(data[key].shape)
            with pytest.raises(InvariantViolation) as want:  # the loop walks the (representative, irrep) order
                check_invariants_loop(data, projectors, members, coeffs.f_norm)
            if backwards:  # a file may list its blocks in any order; the first failure is still canonical
                data = dict(reversed(list(data.items())))
            planted = ZakCoefficients(action, dual, stack_blocks(action, dual, data), coeffs.f_norm)
            with pytest.raises(InvariantViolation) as got:
                planted.check_invariants()
            assert str(got.value) == str(want.value), name
            failures.add("off the reciprocal space" in str(want.value))
    assert failures == {True, False}  # both laws are exercised


def test_blocks_are_the_only_storage():
    rng = np.random.default_rng(32)
    for name, action in oracle_actions().items():
        dual = _dual_for(action)
        coeffs = zak(action, random_complex(rng, action.npoints), dual)
        assert coeffs.structure is weil_structure(action), name
        reps = coeffs.structure.decomp.representatives
        assert list(coeffs.data) == [(x0, s.label) for x0 in reps for s in dual.irreps], name
        assert list(coeffs.stab_members) == list(coeffs.data), name
        for (_d, idx, _mats), z in zip(dual.dim_classes, coeffs.blocks):
            assert not z.flags.writeable
            for r, x0 in enumerate(reps):
                for j, i in enumerate(idx):
                    view = coeffs.data[(x0, dual.irreps[i].label)]
                    assert not view.flags.writeable and np.shares_memory(view, z), name
                    assert np.array_equal(view, z[r, j]), name
        backwards = dict(reversed(list(coeffs.data.items())))  # as a file may list them
        for got, want in zip(stack_blocks(action, dual, backwards), coeffs.blocks):
            assert np.array_equal(got, want), name


def test_zak_accepts_only_the_actions_own_structure():
    action, other = z2_fixed_point(), z2_swap()
    dual = _dual_for(action)
    f = np.ones(3)
    assert np.array_equal(zak(action, f, dual, weil_structure(action)).blocks[0], zak(action, f, dual).blocks[0])
    with pytest.raises(ValueError):
        zak(action, f, dual, weil_structure(other))


def test_zak_data_must_cover_every_pair():
    action = z2_fixed_point()
    dual = _dual_for(action)
    coeffs = zak(action, np.ones(3), dual)
    data = dict(coeffs.data)
    data.pop((2, "chi1"))
    with pytest.raises(SizeMismatch):
        stack_blocks(action, dual, data)
    data[(2, "chi1")] = np.zeros((2, 2))
    with pytest.raises(SizeMismatch):
        stack_blocks(action, dual, data)
    with pytest.raises(SizeMismatch):  # one (representatives, k, d, d) stack per dimension class
        ZakCoefficients(action, dual, [coeffs.blocks[0][:1]], coeffs.f_norm)


# ---------------------------------------------------------------------------
# the thin callers of the core against their loops in oracles.py


def _close(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= 1e-12


def _dicts_close(got, want):
    return list(got) == list(want) and all(_close(got[key], want[key]) for key in want)


def _planted_tables(rng):
    """(name, action, f, coeffs) for every oracle action: the true table, then noise on some blocks."""
    for name, action in oracle_actions().items():
        dual = _dual_for(action)
        f = random_complex(rng, action.npoints)
        coeffs = zak(action, f, dual)
        keys = list(coeffs.data)
        yield name, action, f, coeffs
        for picks in ([keys[-1]], keys[len(keys) // 2 :: 3], keys[::2]):
            yield name, action, f, perturbed_coefficients(coeffs, rng, picks)


def test_extension_gaps_and_extended_zak_match_the_per_point_loop(monkeypatch):
    from zakspace.zak import _extension_gaps

    zakmod = importlib.import_module("zakspace.zak")  # the package exports the function zak under the same name
    rng = np.random.default_rng(40)
    seen = set()
    for name, action, f, coeffs in _planted_tables(rng):
        dual = coeffs.dual
        direct, gaps = _extension_gaps(coeffs, f, np.arange(action.npoints))
        sums = dual.per_irrep(direct)
        want = [extension_gap_loop(coeffs, f, x) for x in range(action.npoints)]
        for x, (want_direct, want_gap) in enumerate(want):
            assert abs(gaps[x] - want_gap) <= 1e-12, (name, x)
            for s, z in zip(dual.irreps, sums):
                assert _close(z[x], want_direct[s.label]), (name, x, s.label)
        monkeypatch.setattr(zakmod, "zak", lambda *args, coeffs=coeffs: coeffs)
        worst = max(gap for _direct, gap in want) / max(1.0, float(np.linalg.norm(f)))
        assert abs(zakmod.equivariance_residual(action, f, dual) - worst) <= 1e-12, name
        for x in range(0, action.npoints, 1 + action.npoints // 32):
            got = outcome(extended_zak, action, f, dual, x)
            assert_same_outcome(got, outcome(extended_zak_loop, coeffs, f, x), _dicts_close)
            seen.add(got[0])
    assert seen == {"raised", "returned"}


def test_character_paths_match_the_per_pair_loops(monkeypatch):
    zakmod = importlib.import_module("zakspace.zak")  # the package exports the function zak under the same name

    rng = np.random.default_rng(42)
    seen = set()
    for name, action, f, coeffs in _planted_tables(rng):
        dual = coeffs.dual
        monkeypatch.setattr(zakmod, "zak", lambda *args, coeffs=coeffs: coeffs)
        want = outcome(character_zak_loop, coeffs, f)
        assert_same_outcome(outcome(character_zak, action, f, dual), want, _dicts_close)
        seen.add(want[0])
        want = outcome(heisenberg_loop, coeffs, f)
        assert_same_outcome(outcome(heisenberg_consistency_residual, action, f, dual), want, _close)
        got, _ = character_zak_reconstruct(action, f, dual)
        assert _close(got, character_zak_reconstruct_loop(action, f, dual)), name
    assert seen == {"raised", "returned"}


def test_intertwining_matches_the_per_pair_loop():
    rng = np.random.default_rng(43)
    for name, action in oracle_actions().items():
        dual = _dual_for(action)
        f = random_complex(rng, action.npoints)
        assert abs(intertwining_residual(action, f, dual) - intertwining_loop(action, f, dual)) <= 1e-12, name
    # a dual that is not a homomorphism breaks the law; both paths see the same gap
    for action in (s3_translation(), translation_action(dihedral_group(5))):  # free, so every block is supported
        dual = broken_dual(_dual_for(action), rng, [1, action.group.order - 1])
        f = random_complex(rng, action.npoints)
        got = intertwining_residual(action, f, dual)
        assert got > 1e-6
        assert abs(got - intertwining_loop(action, f, dual)) <= 1e-12
