"""Quasi-invariant measures and the Weil formula on finite actions.

With counting measure on the group, a weighted action carries the cocycle
lambda_g(x) = w(g x)/w(x) and a positive function q built from a Bruhat
function beta by

    q(x) = sum_g beta(g^-1 x) * lambda_{g^-1}(x).

The orbit-space measure solving

    sum_x f(x) q(x) w(x) = sum_orbits  mu(O) * A f(O)

is found exactly by plugging in delta functions at the orbit
representatives; A is the orbital mean  A f(O) = sum_g f(g^-1 x_O).
The fundamental-domain measure is the same numbers transported to the
representatives.  For unit weights everything collapses to
mu(O) = 1/|stabilizer|.

The structure is built once per action: weil_structure keeps it on the
GroupAction, whose perm and weights are read-only, and every array in it
is read-only too.  Construction still checks the cocycle identity, on the
group's generators (see check_cocycle_identity for why that covers every
pair), and the functional equation of q.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .actions import GroupAction, OrbitDecomposition, orbits
from .errors import SizeMismatch

ATOL = 1e-12


@dataclass
class Cocycle:
    """lambda_g(x) as an (order, npoints) array plus the positive function q."""

    lam: np.ndarray
    q: np.ndarray


def bruhat_function(action: GroupAction, decomp: OrbitDecomposition | None = None) -> np.ndarray:
    """beta with orbital mean 1: indicator of the fundamental domain over |G_x|."""
    decomp = decomp or orbits(action)
    beta = np.zeros(action.npoints)
    for oid, rep in enumerate(decomp.representatives):
        beta[rep] = 1.0 / decomp.stabilizer_sizes[oid]
    return beta


def cocycle(action: GroupAction, decomp: OrbitDecomposition | None = None) -> Cocycle:
    """Weight cocycle lambda and the function q solving the Weil identity."""
    group = action.group
    w = action.weights
    # lam[g, x] = w(g x) / w(x)
    lam = w[action.perm] / w[None, :]
    beta = bruhat_function(action, decomp)
    inv_perm = action.perm[group.inverses]          # inv_perm[g, x] = g^-1 x
    lam_inv_at = lam[group.inverses]                # lambda_{g^-1}(x)
    q = np.einsum("gx,gx->x", beta[inv_perm], lam_inv_at)

    check_cocycle_identity(group, inv_perm, lam)
    # functional equation q(g^-1 x) = q(x) / lambda_{g^-1}(x)
    resid = np.max(np.abs(q[inv_perm] * lam_inv_at - q[None, :]))
    if resid > ATOL * max(1.0, float(np.max(q))):
        raise AssertionError(f"q functional equation fails, residual {resid}")
    return Cocycle(lam, q)


def check_cocycle_identity(group, inv_perm: np.ndarray, lam: np.ndarray) -> None:
    """lambda_{ab}(x) = lambda_a(b x) lambda_b(x) for every a, b the identity or a generator.

    Written as the loop oracle writes a pair (g1, g2) = (a, b^-1), this is
    (g2 lambda_{g1})(x) = lambda_{g1 g2^-1}(x) / lambda_{g2^-1}(x), and each
    pair is held to the same ATOL * max(1, max|rhs|) as when every pair was
    checked.  Checking b on group.generators covers all of G:

    - In exact arithmetic, induction on word length carries the identity
      from the generators to all of G.  If it holds for b1 and b2 and every
      a, then lambda_{a b1 b2}(x) = lambda_{a b1}(b2 x) lambda_{b2}(x)
      = lambda_a(b1 b2 x) lambda_{b1}(b2 x) lambda_{b2}(x)
      = lambda_a(b1 b2 x) lambda_{b1 b2}(x).  The step (b1 b2) x = b1 (b2 x)
      is where perm must be a homomorphism, which make_action checked
      exactly.  The identity row covers the trivial group, whose generating
      set is empty.
    - lambda_g(x) = w(g x)/w(x) is computed pointwise from the weights for
      each g, not composed along a word.  So once perm is an exact
      homomorphism, each pair's residual is bounded by the rounding of a few
      operations on w alone, whatever the word length of b.

    Each b is one (|G|, npoints) array over a; raises at the pair (a, b^-1)
    of the first failing b, at its first failing a.
    """
    for b in [group.identity, *group.generators.tolist()]:
        lhs = lam[:, inv_perm[group.inverses[b]]]  # [a, x] = lambda_a(b x)
        rhs = lam[group.table[:, b]] / lam[b]
        err = np.abs(lhs - rhs).max(axis=1)
        bad = np.flatnonzero(err > ATOL * np.fmax(1.0, np.abs(rhs).max(axis=1)))
        if bad.size:
            raise AssertionError(f"cocycle identity fails at ({bad[0]},{group.inverses[b]})")


def orbital_mean(action: GroupAction, f, coc: Cocycle | None = None) -> np.ndarray:
    """Per-orbit mean A f(O) = sum_g f(g^-1 x); q-weighted integrand if coc given.

    The value is computed at every point of the orbit and asserted equal,
    which is the finite form of well-definedness on the orbit space.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (action.npoints,):
        raise SizeMismatch(f"f must have shape ({action.npoints},), got {f.shape}")
    s = weil_structure(action)
    decomp = s.decomp
    integrand = f if coc is None else f / coc.q
    per_point = integrand[s.inv_perm].sum(axis=0)   # A f at every base point
    out = per_point[decomp.representatives]
    scale = max(1.0, float(np.max(np.abs(per_point))))
    bad = np.abs(per_point - out[decomp.orbit_id]) > 1e-12 * scale
    if bad.any():
        oid = int(decomp.orbit_id[bad].min())
        raise AssertionError(f"orbital mean depends on the representative in orbit {oid}")
    return out


def weil_measures(action: GroupAction, coc: Cocycle, decomp: OrbitDecomposition | None = None) -> OrbitDecomposition:
    """Fill orbit and fundamental-domain measures by the delta-function solve."""
    decomp = decomp or orbits(action)
    reps = decomp.representatives
    mean_at_rep = np.array(decomp.stabilizer_sizes, dtype=float)  # A delta_rep at rep
    measures = coc.q[reps] * action.weights[reps] / mean_at_rep
    fd = {rep: measures[oid] for oid, rep in enumerate(reps)}
    return dataclasses.replace(decomp, orbit_measure=measures, fd_measure=fd)


@dataclass
class WeilStructure:
    """Everything the transforms downstream need about one action.

    It is kept on its action (GroupAction.weil) and holds no reference back
    to it, so the two form no reference cycle and are freed together.
    """

    decomp: OrbitDecomposition
    cocycle: Cocycle
    inv_perm: np.ndarray               # inv_perm[g, x] = g^-1 x
    point_measure: np.ndarray          # q w, the density of the invariant reference measure
    stabilizers: list[np.ndarray]      # of each representative, as sorted elements

    def __post_init__(self):
        d = self.decomp
        for arr in (self.inv_perm, self.point_measure, *self.stabilizers, self.cocycle.lam,
                    self.cocycle.q, d.orbit_id, d.to_rep_element, d.orbit_measure):
            arr.setflags(write=False)


def weil_structure(action: GroupAction) -> WeilStructure:
    """The Weil structure of the action: built on the first call, then kept on it."""
    if action.weil is None:
        perm = action.perm
        decomp = orbits(action)
        coc = cocycle(action, decomp)
        action.weil = WeilStructure(
            weil_measures(action, coc, decomp),
            coc,
            perm[action.group.inverses],
            coc.q * action.weights,
            [np.flatnonzero(perm[:, x0] == x0) for x0 in decomp.representatives],
        )
    return action.weil


def weil_residual(action: GroupAction, f) -> float:
    """|sum f q w - sum mu(O) A f(O)|, normalized by the l1 norm of f."""
    s = weil_structure(action)
    f = np.asarray(f, dtype=complex)
    lhs = np.sum(f * s.point_measure)
    rhs = np.sum(s.decomp.orbit_measure * orbital_mean(action, f))
    return float(abs(lhs - rhs) / max(1.0, np.sum(np.abs(f))))


def mackey_bruhat_residual(action: GroupAction, f) -> float:
    """|sum f w - sum mu(O) A_q f(O)| for the q-weighted orbital mean."""
    s = weil_structure(action)
    f = np.asarray(f, dtype=complex)
    lhs = np.sum(f * action.weights)
    rhs = np.sum(s.decomp.orbit_measure * orbital_mean(action, f, s.cocycle))
    return float(abs(lhs - rhs) / max(1.0, np.sum(np.abs(f))))
