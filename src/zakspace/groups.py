"""Finite groups given by multiplication tables, elements indexed 0..n-1.

A group is stored as an n x n table of element indices together with the
located identity, per-element inverses and a small generating set.  The
counting measure (weight 1 per element) is the Haar measure throughout
zakspace; it is two-sided invariant, so the modular function is identically
1 and all unimodularity hypotheses hold for free.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NoIdentity, NoInverse, NotAssociative, NotSubgroup


def _read_only_copy(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _integer_array(values, what: str) -> np.ndarray:
    """values as an int array; ValueError when an entry is not an integer
    (np.asarray(..., dtype=int) would truncate 2.5 to 2)."""
    a = np.asarray(values)
    if a.dtype.kind == "f" and np.isfinite(a).all() and (a == np.round(a)).all():
        a = a.astype(int)
    if a.dtype.kind not in "biu":
        raise ValueError(f"{what} entries must be integers")
    return a.astype(int, copy=False)


class FiniteGroup:
    """Validated finite group on indices 0..order-1.

    Use :func:`make_group` (or one of the named constructors) instead of
    calling this directly; construction assumes the table was checked.
    table, inverses and generators are read-only copies, as GroupAction's
    arrays are.  generators is the generating set make_group found, at
    most log2(order) elements; the action and cocycle checks run on it.
    """

    _max_word_length = None

    def __init__(self, table, identity, inverses, generators, name=None):
        self.table = _read_only_copy(table, int)
        self.order = int(self.table.shape[0])
        self.identity = int(identity)
        self.inverses = _read_only_copy(inverses, int)
        self.generators = _read_only_copy(generators, int)
        self.name = name
        self._factors = None  # set by direct_product

    @property
    def max_word_length(self) -> int:
        """L, the largest word length over generators (read-only, computed once).

        Every element is a product s_1 s_2 ... s_k of generators, with no
        inverses needed since s^-1 is a power of s; its word length is the
        least such k.  L is the depth of the breadth-first search of the
        right Cayley graph x -> x s from the identity, O(|G| |S|).  The
        search walks Python lists of table rows, as _greedy_generators does:
        a cyclic group has one element per layer, and a numpy call per layer
        would cost far more than the layer.  The trivial group has L = 0; a
        cyclic group of order n on one generator has L = n - 1.  The
        generator certificates of duals.validate_irrep and
        bloch.check_invariance multiply their per-generator defects by it.
        """
        if self._max_word_length is None:
            rows = self.table[:, self.generators].tolist()  # rows[x][i] = x * generators[i]
            seen = [False] * self.order
            seen[self.identity] = True
            frontier, depth = [self.identity], -1
            while frontier:
                new = []
                for x in frontier:
                    for y in rows[x]:
                        if not seen[y]:
                            seen[y] = True
                            new.append(y)
                frontier, depth = new, depth + 1
            self._max_word_length = depth
        return self._max_word_length

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverses[g])

    def conjugate(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != self.identity:
            acc = self.mul(acc, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes, each sorted, ordered by smallest member."""
        seen = set()
        classes = []
        for g in self.elements():
            if g in seen:
                continue
            cls = sorted({self.conjugate(h, g) for h in self.elements()})
            seen.update(cls)
            classes.append(cls)
        return classes

    def __repr__(self):
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"


def _greedy_generators(t: np.ndarray, identity: int) -> list[int]:
    """A generating set: each generator is the smallest element that right
    multiplication by the earlier ones does not reach from the identity.

    Every reached element is a product of generators.  In a group each new
    generator lies outside the subgroup generated so far, so that subgroup at
    least doubles and there are at most log2(n) generators.
    """
    n = len(t)
    reached = [False] * n
    reached[identity] = True
    elements, generators, columns = [identity], [], []
    candidate = 0
    while len(elements) < n:
        while reached[candidate]:
            candidate += 1
        generators.append(candidate)
        columns.append(t[:, candidate].tolist())  # columns[i][x] = x * generators[i]
        frontier = [columns[-1][x] for x in elements]
        while frontier:
            new = []
            for y in frontier:
                if not reached[y]:
                    reached[y] = True
                    elements.append(y)
                    new.append(y)
            frontier = [col[y] for y in new for col in columns]
    return generators


def make_group(table, name=None) -> FiniteGroup:
    """Validate a multiplication table; locate identity, inverses and generators.

    The checks run in this order, each raising at its witness: NoIdentity;
    NotAssociative, naming a failing triple (g*h)*k != g*(h*k); NoInverse,
    naming the smallest element without a two-sided inverse.

    Associativity is checked on generators by Light's test (Clifford &
    Preston, The Algebraic Theory of Semigroups, 1961): the elements a with
    (x a) y = x (a y) for all x, y contain the identity and are closed under
    products, so if every generator passes, every product of generators does,
    and that is every element.  This costs O(|S| n^2) and builds no n^3 array.
    The generators (see FiniteGroup.generators) are found first, by
    right-multiplication closure from the identity, which needs no
    associativity.  A failing triple has a generator in the middle; it is
    the first in row-major order for the first failing generator, not
    necessarily the first of all triples.
    """
    t = _integer_array(table, "table")
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"table must be square, got shape {t.shape}")
    n = t.shape[0]
    if n == 0:
        raise ValueError("empty table")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("table entries out of range")

    # two-sided identity: the first e whose row and column are both 0..n-1
    idx = np.arange(n)
    two_sided = (t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise NoIdentity()
    identity = int(np.argmax(two_sided))

    generators = _greedy_generators(t, identity)
    for a in generators:
        bad = t[t[:, a]] != t[:, t[a]]  # [x, y]: (x a) y != x (a y)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise NotAssociative(int(x), a, int(y))

    # inverses: the first h with g h = e must also give h g = e
    is_e = t == identity
    right = np.argmax(is_e, axis=1)
    two_sided = is_e[idx, right] & is_e[right, idx]
    if not two_sided.all():
        raise NoInverse(int(np.argmin(two_sided)))

    return FiniteGroup(t, identity, right, generators, name=name)


# ---------------------------------------------------------------------------
# named constructors


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with addition mod n; element index equals the residue."""
    if n <= 0:
        raise ValueError("order must be positive")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return make_group(table, name=f"cyclic:{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element a + n*b encodes r^a s^b."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = 2 * n

    def mul(x, y):
        a1, b1 = x % n, x // n
        a2, b2 = y % n, y // n
        # (r^a1 s^b1)(r^a2 s^b2): s r^a = r^-a s
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        b = (b1 + b2) % 2
        return a + n * b

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    return make_group(table, name=f"dihedral:{n}")


def _all_perms(n):
    return sorted(itertools.permutations(range(n)))


_MAX_RANKED_POINTS = 20  # 20! < 2**63, so a lexicographic rank fits in int64


def _lexicographic_ranks(perms: np.ndarray) -> np.ndarray:
    """Rank of each row (a permutation of 0..k-1) among all k! in lexicographic order (Lehmer code)."""
    k = perms.shape[-1]
    ranks = np.zeros(perms.shape[:-1], dtype=np.int64)
    for i in range(k - 1):
        smaller_later = (perms[..., i + 1:] < perms[..., i : i + 1]).sum(axis=-1)
        ranks = ranks * (k - i) + smaller_later
    return ranks


def permutation_table(perms) -> np.ndarray:
    """Composition table for a list of distinct permutations, (p*q)(i) = p(q(i)).

    All pairs are composed as one gather per block of rows, and each
    composite is looked up by its lexicographic rank among the sorted ranks
    of the list.  A set that is not closed raises NotSubgroup, naming the
    first pair in row-major order whose composite is missing.
    """
    p = np.asarray([tuple(q) for q in perms], dtype=np.int64)
    m, k = p.shape
    if k > _MAX_RANKED_POINTS:
        raise ValueError(f"permutation_table takes at most {_MAX_RANKED_POINTS} points, got {k}")
    if not (np.sort(p, axis=1) == np.arange(k)).all():
        raise ValueError(f"each row must be a permutation of 0..{k - 1}")
    ranks = _lexicographic_ranks(p)
    order = np.argsort(ranks)
    sorted_ranks = ranks[order]
    if (np.diff(sorted_ranks) == 0).any():
        raise ValueError("permutations must be distinct")
    table = np.empty((m, m), dtype=int)
    block = max(1, (1 << 22) // (m * k))  # rows per gather: about 4M composite entries
    for start in range(0, m, block):
        comp = p[start : start + block][:, p]  # comp[i, j] = p_i o p_j
        r = _lexicographic_ranks(comp)
        pos = np.minimum(np.searchsorted(sorted_ranks, r), m - 1)
        missing = sorted_ranks[pos] != r
        if missing.any():
            i, j = np.argwhere(missing)[0]
            a, b = tuple(p[start + i].tolist()), tuple(p[j].tolist())
            raise NotSubgroup(f"permutation set not closed: {a} o {b}")
        table[start : start + block] = order[pos]
    return table


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on the letters 0..n-1, elements in lexicographic order."""
    if n > 6:
        raise ValueError("symmetric_group is intended for small n")
    perms = _all_perms(n)
    g = make_group(permutation_table(perms), name=f"symmetric:{n}")
    g.permutations = perms
    return g


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with element a*|G2| + b encoding the pair (a, b)."""
    n2 = g2.order
    a1, b1 = np.divmod(np.arange(g1.order * n2)[:, None], n2)
    a2, b2 = np.divmod(np.arange(g1.order * n2)[None, :], n2)
    table = g1.table[a1, a2] * n2 + g2.table[b1, b2]
    name = f"product:{g1.name or '?'}x{g2.name or '?'}"
    g = make_group(table, name=name)
    g._factors = (g1, g2)
    return g


# ---------------------------------------------------------------------------
# subgroup utilities


def check_subgroup(group: FiniteGroup, elements) -> list[int]:
    """Validate the indices, closure under product and inverse; return the sorted subgroup."""
    elems = sorted(set(int(x) for x in elements))
    if not elems:
        raise NotSubgroup("empty element set")
    if elems[0] < 0 or elems[-1] >= group.order:
        raise NotSubgroup(f"element {elems[0] if elems[0] < 0 else elems[-1]} is not in 0..{group.order - 1}")
    member = set(elems)
    if group.identity not in member:
        raise NotSubgroup("subgroup must contain the identity")
    for g in elems:
        if group.inv(g) not in member:
            raise NotSubgroup(f"inverse of {g} missing")
        for h in elems:
            if group.mul(g, h) not in member:
                raise NotSubgroup(f"product {g}*{h} escapes the set")
    return elems

def generated_subgroup(group: FiniteGroup, generators) -> list[int]:
    """Closure of a generator set, sorted."""
    elems = {group.identity}
    frontier = [int(g) for g in generators]
    elems.update(frontier)
    while frontier:
        new = []
        for g in frontier:
            for h in list(elems):
                for prod in (group.mul(g, h), group.mul(h, g)):
                    if prod not in elems:
                        elems.add(prod)
                        new.append(prod)
        frontier = new
    return sorted(elems)


def subgroup_as_group(group: FiniteGroup, elements) -> tuple[FiniteGroup, dict]:
    """Reindex a subgroup as its own FiniteGroup; returns (group, old->new map)."""
    elems = check_subgroup(group, elements)
    to_new = {g: i for i, g in enumerate(elems)}
    table = [[to_new[group.mul(g, h)] for h in elems] for g in elems]
    return make_group(table), to_new


def left_cosets(group: FiniteGroup, subgroup_elems) -> list[list[int]]:
    """Partition into cosets gH, each sorted, ordered by smallest member."""
    member = set(subgroup_elems)
    if not member:
        raise NotSubgroup("empty element set")
    seen = set()
    cosets = []
    for g in group.elements():
        if g in seen:
            continue
        coset = sorted(group.mul(g, h) for h in member)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def is_normal(group: FiniteGroup, subgroup_elems) -> bool:
    member = set(subgroup_elems)
    return all(
        group.conjugate(g, h) in member for g in group.elements() for h in member
    )
