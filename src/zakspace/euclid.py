"""Discrete groups of Euclidean isometries (Q|c) in 2 or 3 dimensions.

Elements compose as (Q1|c1)(Q2|c2) = (Q1 Q2 | Q1 c2 + c1) and act by
x -> Q x + c.  Groups are given by generators and closed by breadth-first
search under a truncation (word-length bound, spatial radius, element
cap); elements are identified up to a Frobenius-norm tolerance.  On top
of the closure sit the pure-translation subgroup, a type-I certificate
(normal abelian subgroup of finite index, reported honestly as
inconclusive when the truncation cannot witness it), and the conversion
to a finite permutation action on seed-point orbits, folding infinite
translation groups onto a torus when periods are supplied.

A set of isometries is held as stacked arrays q (n, d, d) and c (n, d),
row i being (q[i] | c[i]); closure, certificate and torus folding work on
the stacks.  IsometryElement is one isometry at the boundary (generators,
CLI documents, public element lists), validated once by its constructor.

Every identification goes through one sorted index, _SortedKeys: a row is
keyed by the projection of its flattened (Q, c) on a fixed unit vector
(on a torus, once per superlattice offset of c), and a lookup takes the
keys within the tolerance of the candidate's key, widened by a bound on
the rounding.  By Cauchy-Schwarz that window holds every pair within the
tolerance, and the exact norm tests decide on the pairs in it only.
Candidates are kept in order: one is dropped when it matches a row or a
candidate kept before it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache, cached_property
from itertools import product as iproduct

import numpy as np

from .actions import GroupAction, make_action
from .errors import DimensionMismatch, NotClosable, TruncationExceeded
from .groups import FiniteGroup, _read_only_copy, make_group

IDENT_TOL = 1e-9


@dataclass
class IsometryElement:
    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim != 1 or self.q.shape != (self.c.shape[0],) * 2:
            raise DimensionMismatch(f"Q is {self.q.shape}, c has shape {self.c.shape}")
        if _isometry_defects(self.q, self.c):
            raise DimensionMismatch(NOT_ISOMETRY)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q.ravel(), self.c])

    def __repr__(self):
        return f"IsometryElement(Q={np.round(self.q, 6).tolist()}, c={np.round(self.c, 6).tolist()})"


NOT_ISOMETRY = "Q must be orthogonal to 1e-12, and Q and c finite"


def _isometry_defects(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per stacked (Q, c) (or for one): True where an entry is not finite or Q is not orthogonal to 1e-12."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Q makes its Gram diagonal inf or NaN
        gram = np.abs(q @ np.swapaxes(q, -1, -2) - np.eye(c.shape[-1]))
    return ~np.isfinite(c).all(axis=-1) | ~(gram.max(axis=(-2, -1)) <= 1e-12)


def _norms(x: np.ndarray) -> np.ndarray:
    """Norms along the last axis, rounded exactly as np.linalg.norm of one vector."""
    x = np.ascontiguousarray(x)
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def translation_mask(q: np.ndarray, tol: float = IDENT_TOL) -> np.ndarray:
    """Per stacked Q (or for one Q): True where ||Q - I||_F < tol."""
    d = q.shape[-1]
    return _norms((q - np.eye(d)).reshape(*q.shape[:-2], d * d)) < tol


def _as_elements(q: np.ndarray, c: np.ndarray) -> list:
    """The stacked isometries as a list of IsometryElement."""
    return [IsometryElement(qi, ci) for qi, ci in zip(q, c)]


def _first(mask: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis, or the axis length where there is none."""
    if mask.shape[-1] == 0:
        return np.zeros(mask.shape[:-1], dtype=np.intp)
    return np.where(mask.any(axis=-1), np.argmax(mask, axis=-1), mask.shape[-1])


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True in a 1-d mask, or its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


def identity_isometry(dim: int) -> IsometryElement:
    return IsometryElement(np.eye(dim), np.zeros(dim))


def compose(a: IsometryElement, b: IsometryElement) -> IsometryElement:
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim}-d composed with {b.dim}-d")
    return IsometryElement(a.q @ b.q, a.q @ b.c + a.c)


def inverse(a: IsometryElement) -> IsometryElement:
    return IsometryElement(a.q.T, -a.q.T @ a.c)


def act(a: IsometryElement, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != a.dim:
        raise DimensionMismatch(f"point of dimension {x.shape[-1]} under {a.dim}-d isometry")
    return x @ a.q.T + a.c


def distance(a: IsometryElement, b: IsometryElement) -> float:
    return float(np.linalg.norm(a.flat() - b.flat()))


def is_translation(a: IsometryElement, tol: float = IDENT_TOL) -> bool:
    return bool(translation_mask(a.q, tol))


# convenient generators ------------------------------------------------------


def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def translation(vec) -> IsometryElement:
    vec = np.asarray(vec, dtype=float)
    return IsometryElement(np.eye(len(vec)), vec)


def screw(angle: float, pitch: float) -> IsometryElement:
    """Rotation about the z axis combined with translation along it."""
    return IsometryElement(rotation_z(angle), np.array([0.0, 0.0, pitch]))


def rational_angle(angle: float, max_denominator: int = 1000, tol: float = 1e-9):
    """Detect angle = 2 pi p/q by continued fractions, or return None.

    Rationality of a screw angle cannot be decided from floats in general;
    this reports a (p, q) only when the continued-fraction convergent with
    denominator <= max_denominator reproduces the angle to tol, and callers
    must treat None as "undecided", never as "irrational".
    """
    turns = (angle / (2.0 * np.pi)) % 1.0
    # continued-fraction convergents of `turns`
    p0, q0, p1, q1 = 0, 1, 1, 0
    x = turns
    for _ in range(64):
        a = int(np.floor(x))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_denominator:
            return None
        if abs(turns - p1 / q1) < tol:
            return p1 % max(q1, 1), q1
        frac = x - a
        if frac < 1e-15:
            return None
        x = 1.0 / frac
    return None


@dataclass
class Truncation:
    word_length: int = 24
    radius: float = 50.0
    max_elements: int = 20000
    tol: float = IDENT_TOL


@dataclass
class IsometryGroupSpec:
    dim: int
    generators: list
    truncation: Truncation = field(default_factory=Truncation)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DimensionMismatch(f"only 2-d and 3-d isometries are supported, got {self.dim}")
        for g in self.generators:
            if g.dim != self.dim:
                raise DimensionMismatch(f"generator of dimension {g.dim} in {self.dim}-d spec")


@dataclass
class GeneratedGroup:
    """The closure as read-only stacks q (n, d, d) and c (n, d), in generation order."""

    q: np.ndarray
    c: np.ndarray
    finite: bool
    word_lengths: list
    radius_truncated: bool

    def __post_init__(self):
        self.q, self.c = _read_only_copy(self.q, float), _read_only_copy(self.c, float)

    @property
    def order(self) -> int:
        return len(self.q)

    @cached_property
    def elements(self) -> list:
        return _as_elements(self.q, self.c)


EPS = np.finfo(float).eps


@cache
def _unit(m: int) -> np.ndarray:
    """The square roots of the first m primes, scaled to norm 1 (read-only)."""
    primes = [p for p in range(2, 4 * m * m + 4) if all(p % q for q in range(2, int(p**0.5) + 1))]
    u = np.sqrt(np.array(primes[:m], dtype=float))
    u /= np.linalg.norm(u)
    u.flags.writeable = False
    return u


def _entry_bound(x: np.ndarray) -> float:
    """Largest finite |entry| of x, or 0."""
    return float(np.max(np.abs(x), where=np.isfinite(x), initial=0.0))


class _SortedKeys:
    """Rows keyed by their projection on one fixed unit vector u, in key order.

    With shifts, row r gets one key u.(row[r] - shift[s]) per shift s.  The
    components of u are square roots of distinct primes, scaled to norm 1,
    so distinct lattice-like rows rarely share a key.  By Cauchy-Schwarz
    |u.x - u.y| <= |x - y|, so a candidate within `reach` of a shifted row
    has its key within `reach` of that row's key.  `window` widens this by
    16 m eps (b + reach), where b = sqrt(m) max|entry| bounds the norm of
    every keyed vector and candidate in R^m: the rounding of the keys, of
    the window ends and of the callers' exact norm tests stays below a
    quarter of that.  The callers decide on the pairs in the window with
    those exact tests.
    """

    def __init__(self, rows: np.ndarray, shifts: np.ndarray | None = None):
        m = rows.shape[1]
        self.unit = _unit(m)
        self.nshift = 1 if shifts is None else len(shifts)
        vecs = rows if shifts is None else (rows[:, None, :] - shifts).reshape(-1, m)
        keys = vecs @ self.unit
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.bound = _entry_bound(vecs)

    def window(self, cands: np.ndarray, reach: float):
        """(k, r, s): each candidate k with each row r and shift s whose key lies in its window."""
        if not reach > 0:  # tol <= 0 or NaN identifies nothing; no negative count reaches np.repeat
            none = np.empty(0, dtype=np.intp)
            return none, none, none
        m = cands.shape[1]
        keys = cands @ self.unit
        half = reach + 16 * m * EPS * (np.sqrt(m) * max(self.bound, _entry_bound(cands)) + reach)
        lo = np.searchsorted(self.keys, keys - half, "left")
        counts = np.searchsorted(self.keys, keys + half, "right") - lo
        k = np.repeat(np.arange(len(cands)), counts)
        slot = self.order[np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        return (k, *np.divmod(slot, self.nshift))


def _keep_in_order(known: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """kept[k]: not known[k], and no kept j with 0 <= j < k paired with k.

    Settled in rounds; each round settles at least the first open candidate,
    whose earlier partners are all settled, so chains of any length resolve
    as the one-by-one rule would.
    """
    earlier = (0 <= j) & (j < k)
    j, k = j[earlier], k[earlier]
    state = (~known).astype(np.int8)  # 1 kept, 0 dropped, -1 open
    open_ = np.zeros(len(known), dtype=bool)
    open_[k] = True
    open_ &= ~known
    state[open_] = -1
    while open_.any():
        live = open_[k]
        j, k = j[live], k[live]
        partner = state[j]
        state[k[partner == 1]] = 0
        waiting = np.zeros(len(known), dtype=bool)
        waiting[k[partner == -1]] = True
        open_ = state == -1
        state[open_ & ~waiting] = 1
        open_ &= waiting
    return state == 1


def _accept(rows: np.ndarray, cands: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the candidates kept in order: a candidate is dropped when it
    lies within tol of a row or of a candidate kept before it."""
    both = np.concatenate([rows, cands])
    k, r, _ = _SortedKeys(both).window(cands, tol)
    close = np.linalg.norm(both[r] - cands[k], axis=1) < tol
    k, j = k[close], r[close] - len(rows)
    known = np.zeros(len(cands), dtype=bool)
    known[k[j < 0]] = True
    return np.flatnonzero(_keep_in_order(known, j, k))


def _split(rows: np.ndarray, d: int):
    """Flattened (Q|c) rows as stacks q (n, d, d) and c (n, d)."""
    return np.ascontiguousarray(rows[:, : d * d]).reshape(-1, d, d), np.ascontiguousarray(rows[:, d * d :])


def generate(spec: IsometryGroupSpec) -> GeneratedGroup:
    """Breadth-first closure of the generators within the truncation.

    The generator set is symmetrized with inverses, so the closure is
    inverse-closed layer by layer and the finiteness flag is exact: it is
    set only when a whole layer produces nothing new strictly before the
    word-length bound, with no element dropped by the radius cut.  Each
    layer composes the whole frontier with every generator at once and
    keeps the new candidates in frontier-major, generator-minor order;
    elements are identified when their flattened (Q, c) lie within tol.
    """
    tr = spec.truncation
    d = spec.dim
    sym = np.array([  # each generator and its inverse, computed as `inverse` does
        np.concatenate([q.ravel(), c]) for g in spec.generators for q, c in ((g.q, g.c), (g.q.T, -g.q.T @ g.c))
    ]).reshape(-1, d * d + d)
    gen_q, gen_c = _split(sym[_accept(sym[:0], sym, tr.tol)], d)
    gen_c = gen_c[:, :, None]

    rows = np.concatenate([np.eye(d).ravel(), np.zeros(d)])[None, :]
    word_lengths = [0]
    radius_truncated = False
    frontier = rows
    finite = False
    for layer in range(1, tr.word_length + 1):
        q, c = _split(frontier, d)
        cand_q = (q[:, None] @ gen_q[None]).reshape(-1, d, d)
        cand_c = ((q[:, None] @ gen_c[None])[..., 0] + c[:, None]).reshape(-1, d)
        bad = _first_true(_isometry_defects(cand_q, cand_c))
        cut = _norms(cand_c[:bad]) > tr.radius
        radius_truncated = radius_truncated or bool(cut.any())
        live = np.flatnonzero(~cut)
        flats = np.concatenate([cand_q[live].reshape(len(live), d * d), cand_c[live]], axis=1)
        new = flats[_accept(rows, flats, tr.tol)]
        if len(new) and len(rows) + len(new) > tr.max_elements:
            keep = max(tr.max_elements + 1 - len(rows), 1)  # the cap is checked after each add
            raise TruncationExceeded(_as_elements(*_split(np.concatenate([rows, new[:keep]]), d)))
        if bad < len(cand_q):
            raise DimensionMismatch(NOT_ISOMETRY)
        if len(new) == 0:
            finite = not radius_truncated
            break
        rows = np.concatenate([rows, new])
        word_lengths += [layer] * len(new)
        frontier = new
    return GeneratedGroup(*_split(rows, d), finite, word_lengths, radius_truncated)


def translation_subgroup(elements, tol: float = IDENT_TOL) -> list:
    """Pure translations (I|c) among the elements."""
    return [e for e in elements if is_translation(e, tol)]


def conjugation_residual(g: IsometryElement, t: IsometryElement) -> float:
    """Distance of g (I|c) g^-1 from the translation (I|Qc)."""
    conj = compose(compose(g, t), inverse(g))
    expected = IsometryElement(np.eye(g.dim), g.q @ t.c)
    return distance(conj, expected)


# ---------------------------------------------------------------------------
# type-I certificate


@dataclass
class Certificate:
    status: str            # "type_I" or "inconclusive"
    kind: str              # "finite", "abelian", "helical", "space_group", ""
    witness: str
    index: int | None
    order: int | None
    notes: str

    def as_dict(self) -> dict:
        return asdict(self)


def _generators_commute(spec: IsometryGroupSpec) -> bool:
    """Whether distance(ab, ba) <= tol for every pair of generators.

    The pairs are composed on the generator stacks: row (a, b) of `ab` is
    the flat (Q_a Q_b, Q_a c_b + c_a), and row (b, a) is ba.  A product
    that overflows is not within tol.
    """
    d = spec.dim
    q = np.array([g.q for g in spec.generators]).reshape(-1, d, d)
    c = np.array([g.c for g in spec.generators]).reshape(-1, d)
    with np.errstate(over="ignore", invalid="ignore"):
        ab = np.concatenate([
            (q[:, None] @ q[None, :]).reshape(len(q), len(q), d * d),
            (q[:, None] @ c[None, :, :, None])[..., 0] + c[:, None],
        ], axis=-1)
        return bool((_norms(ab - ab.swapaxes(0, 1)) <= spec.truncation.tol).all())


def _common_axis(q: np.ndarray, tol: float = 1e-8) -> bool:
    """Heuristic: every non-identity rotation part fixes one shared axis."""
    if q.shape[-1] == 2:
        return True  # planar rotations share the out-of-plane axis
    w, v = np.linalg.eig(q[~translation_mask(q, tol)])
    fixed = np.abs(w - 1.0) < 1e-8
    if not (fixed.sum(axis=1) == 1).all():
        return False
    axes = v.real.swapaxes(1, 2)[fixed]  # the fixed eigenvector of each rotation part
    axes = axes / _norms(axes)[:, None]
    return bool(len(axes) == 0 or (np.minimum(_norms(axes - axes[0]), _norms(axes + axes[0])) <= 1e-6).all())


def _distinct_rotation_parts(gen: GeneratedGroup):
    """Number of distinct Q parts, each new when farther than 1e-8 from every
    earlier new one, and the word length at which the last of them appeared."""
    flat = gen.q.reshape(gen.order, -1)
    first, rest = [], np.arange(gen.order)
    while len(rest):
        first.append(rest[0])
        rest = rest[_norms(flat[rest] - flat[rest[0]]) > 1e-8]
    return len(first), gen.word_lengths[first[-1]]


STABLE_WINDOW = 3  # trailing word-length layers that must add no rotation part


def type_one_certificate(spec: IsometryGroupSpec) -> Certificate:
    """Certify a normal abelian subgroup of finite index, or say why not.

    Finite groups certify trivially.  A commuting generator set certifies
    the group itself (labelled helical when all elements share a screw
    axis).  Otherwise the translation subgroup is the candidate and the
    index is the number of distinct rotation parts, accepted only when
    that count was stable over the last few word-length layers; anything
    else is reported as inconclusive rather than guessed.
    """
    gen = generate(spec)
    if gen.finite:
        if _generators_commute(spec):
            return Certificate(
                "type_I", "finite", "whole group", 1, gen.order,
                "finite abelian group; the group is its own witness",
            )
        return Certificate(
            "type_I", "finite", "trivial subgroup", gen.order, gen.order,
            "finite group: any subgroup has finite index; trivial subgroup used",
        )

    if _generators_commute(spec):
        kind = "helical" if _common_axis(gen.q) else "abelian"
        note = (
            "generators commute, so the group is abelian and its own witness"
            + ("; all rotation parts share an axis (screw subgroup)" if kind == "helical" else "")
        )
        if kind == "helical":
            for g in spec.generators:
                if is_translation(g, spec.truncation.tol):
                    continue
                # rotation angle up to sign; sign does not affect rationality
                angle = float(np.arccos(np.clip((np.trace(g.q) - 1.0) / 2.0, -1.0, 1.0)))
                found = rational_angle(angle)
                note += (
                    f"; screw angle = 2 pi {found[0]}/{found[1]} (rational)"
                    if found
                    else "; screw angle rationality undecided up to denominator 1000"
                )
        return Certificate("type_I", kind, "screw subgroup", 1, None, note)

    if np.count_nonzero(translation_mask(gen.q, spec.truncation.tol)) > 1:
        n_q, newest = _distinct_rotation_parts(gen)
        if newest <= spec.truncation.word_length - STABLE_WINDOW:
            return Certificate(
                "type_I", "space_group", "translation subgroup", n_q, None,
                f"rotation-part count stable over the last {STABLE_WINDOW} layers; "
                "index = number of distinct rotation parts (heuristic witness)",
            )
        return Certificate(
            "inconclusive", "space_group", "translation subgroup", None, None,
            "rotation-part count had not stabilized within the word-length bound",
        )
    return Certificate(
        "inconclusive", "", "", None, None,
        "no translation subgroup found within the truncation and generators do not commute",
    )


# ---------------------------------------------------------------------------
# finite models: isometry groups as permutation actions on point orbits


@dataclass
class FiniteActionModel:
    group: FiniteGroup
    action: GroupAction
    points: np.ndarray          # (npoints, dim)
    elements: list              # IsometryElement per group index


class _TorusReducer:
    """Reduce vectors modulo a (possibly rank-deficient) superlattice."""

    def __init__(self, basis: np.ndarray | None):
        self.basis = basis  # (dim, rank) columns, or None for no folding
        self.pinv = None if basis is None else np.linalg.pinv(basis)
        if basis is None:
            self.offsets = np.zeros((1, 1))  # broadcasts as the zero vector
        else:
            self.offsets = np.array([
                basis @ np.array(off, dtype=float)
                for off in iproduct((-1, 0, 1), repeat=basis.shape[1])
            ])

    def reduce(self, vecs: np.ndarray) -> np.ndarray:
        """Reduce each vector along the last axis."""
        if self.basis is None:
            return vecs
        coords = (self.pinv @ vecs[..., None])[..., 0]
        return vecs - (self.basis @ np.round(coords)[..., None])[..., 0]

    def shifts(self, lead: int) -> np.ndarray | None:
        """The offsets as key shifts of rows whose last dim entries are the vector
        and whose first `lead` entries are not shifted; None without folding."""
        if self.basis is None:
            return None
        return np.concatenate([np.zeros((len(self.offsets), lead)), self.offsets], axis=1)

    def same(self, rows: np.ndarray, vecs: np.ndarray, tol: float, s: np.ndarray) -> np.ndarray:
        """Per pair: rows - vecs lies within tol of superlattice offset s."""
        return _norms((rows - vecs) - self.offsets[s]) < tol


def _translation_basis(vecs: np.ndarray, dim: int, tol: float) -> np.ndarray | None:
    """Shortest independent translation vectors among the rows of vecs, as columns."""
    lengths = _norms(vecs)
    keep = np.flatnonzero(lengths > tol)
    basis = []
    for v in vecs[keep[np.argsort(lengths[keep], kind="stable")]]:
        trial = np.column_stack(basis + [v]) if basis else v[:, None]
        if np.linalg.matrix_rank(trial, tol=1e-8) == len(basis) + 1:
            basis.append(v)
        if len(basis) == dim:
            break
    return np.column_stack(basis) if basis else None


class _QuotientElements:
    """Isometries (Q, c mod the superlattice) as stacked arrays.

    A candidate matches a row when Q lies within tol in Frobenius norm and
    c within tol of a superlattice translate.  Both together put the
    flattened (Q, c) within sqrt(2) tol of the row shifted by that
    translate, so every lookup asks a _SortedKeys of the rows for that
    window and runs the two norm tests on the pairs in it.
    """

    def __init__(self, reducer: _TorusReducer, tol: float, q: np.ndarray, c: np.ndarray):
        self.reducer = reducer
        self.tol = tol
        self.q = q
        self.c = c
        self._keys = None

    def __len__(self) -> int:
        return len(self.q)

    def _pairs(self, keys, q, c, row_q, row_c):
        """(k, r): candidate k matches row r, for the rows keyed in `keys`."""
        d = c.shape[1]
        k, r, s = keys.window(_flat(q, c), np.sqrt(2.0) * self.tol)
        qdiff = row_q[r] - q[k]
        ok = (_norms(qdiff.reshape(len(k), d * d)) < self.tol) & self.reducer.same(row_c[r], c[k], self.tol, s)
        return k[ok], r[ok]

    def _index(self, q, c) -> _SortedKeys:
        return _SortedKeys(_flat(q, c), self.reducer.shifts(q.shape[-1] ** 2))

    def find(self, q: np.ndarray, c: np.ndarray) -> np.ndarray:
        """First matching row of each candidate, stacked (..., d, d) and (..., d), or -1."""
        if self._keys is None:
            self._keys = self._index(self.q, self.c)
        d = c.shape[-1]
        flat_q, flat_c = q.reshape(-1, d, d), c.reshape(-1, d)
        k, r = self._pairs(self._keys, flat_q, flat_c, self.q, self.c)
        return _least(k, r, len(flat_c), len(self)).reshape(c.shape[:-1])

    def products(self, rows: slice):
        """Each row in `rows` times every row, c reduced, and per row in `rows`
        the first product that is not an isometry (len(self) if none)."""
        q = self.q[rows, None] @ self.q
        c = (self.q[rows, None] @ self.c[..., None])[..., 0] + self.c[rows, None]
        return q, self.reducer.reduce(c), _first(_isometry_defects(q, c))

    def extend(self, q: np.ndarray, c: np.ndarray, cap: int, stop: int | None = None) -> bool:
        """Append, in order, each of the first `stop` candidates that matches no row
        (rows appended before it included); TruncationExceeded past `cap` rows."""
        new = np.flatnonzero(self.find(q[:stop], c[:stop]) < 0)
        if not len(new):
            return False
        q, c = q[new], c[new]
        k, j = self._pairs(self._index(q, c), q, c, q, c)
        kept = np.flatnonzero(_keep_in_order(np.zeros(len(new), dtype=bool), j, k))
        if len(self) + len(kept) > cap:
            kept = kept[: max(cap + 1 - len(self), 1)]  # the cap is checked after each append
        self.q = np.concatenate([self.q, q[kept]])
        self.c = np.concatenate([self.c, c[kept]])
        self._keys = None
        if len(self) > cap:
            raise TruncationExceeded(_as_elements(self.q, self.c))
        return True


def _flat(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Stacked (Q, c) as rows of Q's entries followed by c."""
    return np.concatenate([q.reshape(len(q), c.shape[1] ** 2), c], axis=1)


def _least(k: np.ndarray, r: np.ndarray, n: int, rows: int) -> np.ndarray:
    """Per candidate 0..n-1 the least r paired with it, or -1."""
    first = np.full(n, rows, dtype=np.intp)
    np.minimum.at(first, k, r)
    return np.where(first < rows, first, -1)


def _product_table(model: _QuotientElements, not_closed: str) -> np.ndarray:
    """Composition table of the rows, found in one lookup; NotClosable(not_closed.format(i, j))
    at the first product, row by row, that matches no row."""
    n = len(model)
    q, c, bad = model.products(slice(None))
    table = model.find(q, c)
    missing = _first(table < 0)
    broken = (bad < n) & (bad <= missing)
    i = _first_true(broken | (missing < n))
    if i < n and broken[i]:
        raise DimensionMismatch(NOT_ISOMETRY)
    if i < n:
        raise NotClosable(not_closed.format(i, missing[i]))
    return table


def _close(model: _QuotientElements, cap: int) -> None:
    """Extend the rows by their products until a pass adds nothing.

    A pass takes the rows present at its start in order and extends in
    each one's products with every current row, the first non-isometry
    raising DimensionMismatch.  The products of all rows still to come are
    looked up at once; only a row with a new product or a non-isometry is
    extended, so a closed set costs one lookup.
    """
    changed = True
    while changed:
        changed = False
        end, i = len(model), 0
        while i < end:
            q, c, bad = model.products(slice(i, end))
            n = len(model)
            fresh = (model.find(q, c) < 0) & (np.arange(n) < bad[:, None])
            step = _first_true((bad < n) | fresh.any(axis=1))
            if step == end - i:
                break
            changed = model.extend(q[step], c[step], cap, bad[step]) or changed
            if bad[step] < n:
                raise DimensionMismatch(NOT_ISOMETRY)
            i += step + 1


def _point_pairs(reducer: _TorusReducer, rows: np.ndarray, vecs: np.ndarray, tol: float):
    """(k, r): vecs[k] lies within tol of rows[r] modulo the superlattice."""
    k, r, s = _SortedKeys(rows, reducer.shifts(0)).window(vecs, tol)
    ok = reducer.same(rows[r], vecs[k], tol, s)
    return k[ok], r[ok]


def to_finite_action(spec: IsometryGroupSpec, seed_points, periods=None, tol: float = 1e-9) -> FiniteActionModel:
    """Finite permutation model of the group acting on seed-point orbits.

    Finite groups convert directly.  Infinite groups need periods: the
    translation lattice (scaled by the periods) is divided out, so both
    elements and points live on a torus; NotClosable is raised when the
    rotation parts do not preserve that lattice or an orbit fails to
    close under the identification.  Elements match when their Q parts lie
    within tol and their c parts within tol of a superlattice translate,
    which puts them within sqrt(2) tol once c is shifted by that translate;
    points match when they lie within tol of a translate.  Each lookup
    keys the rows once per superlattice offset in a _SortedKeys and runs
    the exact norm tests on the pairs inside that window only: one lookup
    for the products of a closure pass, one for the group table, one for
    the seed orbits and one for the permutations.
    """
    gen = generate(spec)
    reducer = _TorusReducer(None)
    q, c = gen.q, gen.c
    if not gen.finite:
        if periods is None:
            raise NotClosable("infinite group: supply periods to fold the translations")
        basis = _translation_basis(c[translation_mask(q, spec.truncation.tol)], spec.dim, tol)
        if basis is None:
            raise NotClosable("no translations found to fold within the truncation")
        periods = list(periods)
        if len(periods) != basis.shape[1]:
            raise NotClosable(
                f"{basis.shape[1]} independent translations but {len(periods)} periods"
            )
        super_basis = basis * np.asarray(periods, dtype=float)[None, :]
        # rotation parts must map the superlattice into itself
        images = q @ super_basis
        coords = np.linalg.pinv(super_basis) @ images
        if (
            np.max(np.abs(coords - np.round(coords))) > 1e-6
            or np.max(_norms(np.swapaxes(super_basis @ coords - images, 1, 2))) > 1e-6
        ):
            raise NotClosable("rotation parts do not preserve the folded lattice")
        reducer = _TorusReducer(super_basis)

        # canonicalize, dedupe, and re-close on the quotient
        cap = spec.truncation.max_elements
        reduced = reducer.reduce(c)
        canon = _QuotientElements(reducer, tol, q[:0], c[:0])
        canon.extend(q, reduced, cap)
        _close(canon, cap)
        q, c = canon.q, canon.c

    # group table by composing and matching
    model = _QuotientElements(reducer, tol, q, c)
    group = make_group(_product_table(model, "product of elements {} and {} left the set"))

    # orbit closure of the seeds
    seeds = np.atleast_2d(np.asarray(seed_points, dtype=float))
    if seeds.shape[-1] != spec.dim:
        raise DimensionMismatch(f"point of dimension {seeds.shape[-1]} under {spec.dim}-d isometry")
    qt = np.swapaxes(q, 1, 2)
    images = reducer.reduce((seeds[:, None, None, :] @ qt)[:, :, 0] + c).reshape(-1, spec.dim)
    k, j = _point_pairs(reducer, images, images, tol)
    points = images[_keep_in_order(np.zeros(len(images), dtype=bool), j, k)]
    images = reducer.reduce((points[None, :, None, :] @ qt[:, None])[:, :, 0] + c[:, None]).reshape(-1, spec.dim)
    perm = _least(*_point_pairs(reducer, points, images, tol), len(images), len(points)).reshape(len(q), len(points))
    i = _first_true((perm < 0).any(axis=1))
    if i < len(q):
        raise NotClosable(f"orbit point {points[_first_true(perm[i] < 0)]} escapes under element {i}")
    action = make_action(group, perm)
    return FiniteActionModel(group, action, points, _as_elements(q, c))


def isometry_finite_group(elements, tol: float = 1e-9) -> FiniteGroup:
    """Composition table of an explicit finite element list."""
    q, c = np.array([e.q for e in elements]), np.array([e.c for e in elements])
    model = _QuotientElements(_TorusReducer(None), tol, q, c)
    return make_group(_product_table(model, "element list not closed at ({},{})"))
