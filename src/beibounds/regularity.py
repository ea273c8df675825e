"""Desk-scale regularity oracle for binomial edge ideals.

The quotient by the binomial edge ideal of a graph on n vertices lives
in 2n variables x_0..x_{n-1}, y_0..y_{n-1} (variable index i is x_i,
n+i is y_i).  Under the lexicographic order x_0 > ... > x_{n-1} > y_0 >
... > y_{n-1} the initial ideal is squarefree and generated by one
monomial per label-valid path: a simple path from i to j (i < j), each
of whose interior vertices is either < i or > j, contributes
x_i * y_j * prod(x_k for interior k > j) * prod(y_k for interior k < i).
Regularity transfers across this squarefree degeneration; that single
external fact is the oracle's one trust point, and the acceptance suite
stress-tests it against independently known values.

Regularity of the squarefree monomial ideal is then read off reduced
simplicial homology of induced subcomplexes of its Stanley-Reisner
complex: reg = max(t + 1) over vertex subsets W and degrees t with
nonzero reduced homology of the restriction to W.  A subset is ranked
only if it passes two tests.  It is an element of the LCM lattice (a
union of generators, Gasharov-Peeva-Welker), since any other subset has
a cone vertex.  And its complex has no dominated vertex, since deleting
one is a strong collapse (Barmak-Minian) that keeps the homology in
every field and leads to a smaller subset the scan reaches anyway.  The
witness is therefore the first domination-free lattice element, by
descending size and then ascending variable tuple, that attains the
value.  Homology is computed exactly over GF(2) and GF(3) via
boundary-matrix ranks on Python-int rows (bitmasks for GF(2),
bit-sliced (pos, neg) pairs for GF(3); see ``rank_modp``); the two
fields must agree or an error is raised.  The scan computes only the
ranks it needs: per field it walks the degrees of a subset from the top
down, stops at the first nonzero one, and never goes below the field's
best value so far, since lower degrees cannot raise it.
``homology_dims`` still computes every degree of any subset.

Disconnected graphs are handled component by component (the quotient is
a tensor product over disjoint variable sets, so regularity adds and
witnesses join), which also keeps the per-scan variable count at
2 * (component size).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FieldDisagreementError, ResourceLimitError
from .graphs import Graph, bits, minimalize
from .rank_modp import rank_gf2, rank_gf3, rank_modp

DEFAULT_COMPONENT_CAP = 8
DEFAULT_VAR_CAP = 16
DEFAULT_FIELDS = (2, 3)
# Entries of the per-component cache: a bound, so that long sweeps run
# in bounded memory.
_COMPONENT_CACHE_SIZE = 1 << 16


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- squarefree monomial ideals -------------------------------------------


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Minimal squarefree monomial generators, as variable bitmasks."""

    num_vars: int
    gens: tuple[int, ...]

    @classmethod
    def from_supports(cls, num_vars: int, supports: Iterable[Iterable[int]]) -> "SquarefreeIdeal":
        masks = []
        for sup in supports:
            m = 0
            for v in sup:
                if not 0 <= v < num_vars:
                    raise ValueError(f"variable index {v} out of range")
                m |= 1 << v
            if m == 0:
                raise ValueError("empty generator (unit ideal) not supported")
            masks.append(m)
        return cls(num_vars, minimalize(masks))

    def supports(self) -> list[tuple[int, ...]]:
        return [tuple(bits(m)) for m in self.gens]


def variable_name(idx: int, n: int) -> str:
    return f"x{idx}" if idx < n else f"y{idx - n}"


# -- initial ideal of the binomial edge ideal ------------------------------


def label_valid_path_monomials(g: Graph) -> set[int]:
    """Monomial bitmasks of every label-valid simple path of g."""
    n = g.n
    out: set[int] = set()
    for i in range(n):
        low = (1 << i) - 1  # vertices < i
        for j in range(i + 1, n):
            high = g.full_mask() & ~((1 << (j + 1)) - 1)  # vertices > j
            allowed = low | high

            def walk(cur: int, visited: int, interior: int) -> None:
                if g.adj[cur] >> j & 1:
                    mono = 1 << i | 1 << (n + j)
                    mono |= interior & high
                    for k in bits(interior & low):
                        mono |= 1 << (n + k)
                    out.add(mono)
                for nxt in bits(g.adj[cur] & allowed & ~visited):
                    walk(nxt, visited | 1 << nxt, interior | 1 << nxt)

            walk(i, 1 << i, 0)
    return out


def initial_ideal(g: Graph, max_vertices: int = DEFAULT_COMPONENT_CAP) -> SquarefreeIdeal:
    """Squarefree initial ideal of the binomial edge ideal of g.

    Enumerates all label-valid simple paths and minimalizes; shortcut
    monomials divide longer ones, so this equals the minimal generating
    set without needing a path-minimality test.
    """
    if g.n > max_vertices:
        raise ResourceLimitError(
            f"initial ideal capped at {max_vertices} vertices (got {g.n})"
        )
    return SquarefreeIdeal(2 * g.n, minimalize(label_valid_path_monomials(g)))


# -- induced subcomplex homology -------------------------------------------


def _faces_by_size(local_gens: list[int], k: int) -> list[list[int]]:
    """Faces of the complex on k vertices avoiding every generator.

    Returns lists of face bitmasks grouped by face size (index 0 holds
    the empty face).  A face of size s + 1 extends a face of size s by a
    vertex above its top vertex, so each face is built once, and only
    the generators through that vertex can block it.
    """
    through = [[g for g in local_gens if g >> v & 1] for v in range(k)]
    by_size = [[0]]
    while True:
        grown = []
        for f in by_size[-1]:
            for v in range(f.bit_length(), k):
                h = f | 1 << v
                for g in through[v]:
                    if g & h == g:
                        break
                else:
                    grown.append(h)
        if not grown:
            return by_size
        by_size.append(grown)


def _boundary_ranks(by_size: list[list[int]], s: int, fields: tuple[int, ...]) -> dict[int, int]:
    """Rank of the boundary map (size-s faces -> size-(s-1) faces) per field.

    One pass over the face bits builds each row as a bit-sliced
    ``(pos, neg)`` pair: dropping the i-th vertex of a face (ascending,
    from 0) gives a column with sign (-1)^i.  The GF(2) row is
    ``pos | neg``.
    """
    col = {m: c for c, m in enumerate(by_size[s - 1])}
    pairs = []
    for f in by_size[s]:
        pos = neg = 0
        plus = True
        rest = f
        while rest:
            low = rest & -rest
            if plus:
                pos |= 1 << col[f ^ low]
            else:
                neg |= 1 << col[f ^ low]
            plus = not plus
            rest ^= low
        pairs.append((pos, neg))
    ranks = {}
    for p in fields:
        if p == 2:
            ranks[p] = rank_gf2([pos | neg for pos, neg in pairs])
        elif p == 3:
            ranks[p] = rank_gf3(pairs)
        else:
            width = range(len(col))
            ranks[p] = rank_modp(
                [[(pos >> c & 1) - (neg >> c & 1) for c in width] for pos, neg in pairs], p
            )
    return ranks


def _reduced_homology(by_size: list[list[int]], p: int) -> dict[int, int]:
    """Reduced homology dimensions {degree t: dim} over GF(p), t from -1."""
    ranks = [0] + [_boundary_ranks(by_size, s, (p,))[p] for s in range(1, len(by_size))] + [0]
    return {s - 1: len(faces) - ranks[s] - ranks[s + 1] for s, faces in enumerate(by_size)}


def _compress(gens: Iterable[int], wmask: int) -> tuple[list[int], int]:
    wbits = list(bits(wmask))
    pos = {b: i for i, b in enumerate(wbits)}
    local = [sum(1 << pos[b] for b in bits(g)) for g in gens]
    return local, len(wbits)


def homology_dims(ideal: SquarefreeIdeal, w: Iterable[int], p: int) -> dict[int, int]:
    """Reduced homology dimensions of the Stanley-Reisner complex of
    ``ideal`` restricted to the variable subset ``w``, over GF(p).

    Keys run from -1 (the empty complex {()} reports dimension 1 there)
    to the dimension of the restricted complex.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    wmask = 0
    for v in w:
        if not 0 <= v < ideal.num_vars:
            raise ValueError(f"variable index {v} out of range")
        wmask |= 1 << v
    contained = [g for g in ideal.gens if g & ~wmask == 0]
    local, k = _compress(contained, wmask)
    return _reduced_homology(_faces_by_size(local, k), p)


# -- regularity of squarefree ideals ---------------------------------------


def _lcm_lattice(gens: tuple[int, ...], nv: int) -> list[int]:
    """Nonempty unions of generators, by descending size, then ascending
    variable tuple.

    Among subsets of one size, the ascending-tuple order is the
    descending order of the bit-reversed masks, so one integer key
    sorts both ways at once.
    """
    lattice = {0}
    for g in gens:
        lattice |= {x | g for x in lattice}
    lattice.discard(0)
    width = f"0{nv}b"
    return sorted(
        lattice,
        key=lambda m: m.bit_count() << nv | int(format(m, width)[::-1], 2),
        reverse=True,
    )


def _domination_table(gens: tuple[int, ...], nv: int) -> list[list[tuple[int, int]]]:
    """Per variable u, a pair (g, d) for each generator g holding u.

    ``d`` holds the variables v outside g for which some generator h
    holds v with h - v inside g - u.  Such an h lies in every subset
    that holds g and v, so ``d`` does not depend on the subset.
    """
    table: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for g in gens:
        for u in bits(g):
            face = g ^ 1 << u
            d = 0
            for h in gens:
                extra = h & ~face
                if extra & (extra - 1) == 0:  # h - face is one variable
                    d |= extra
            table[u].append((g, d & ~g))
    return table


def _has_dominated_vertex(wmask: int, table: list[list[tuple[int, int]]]) -> bool:
    """Whether some v in the lattice element W is dominated by some u.

    v is dominated by u when no generator inside W holds both, and for
    every generator g inside W that holds u, some generator h holds v
    with h - v inside g - u: then every face through v stays a face when
    u is added.  Per u, the candidates v start as W and are cut down by
    the ``d`` of each contained g through u, which also drops u itself.
    """
    rest = wmask
    while rest:
        low = rest & -rest
        rest ^= low
        cand = wmask
        for g, d in table[low.bit_length() - 1]:
            if g & ~wmask == 0:
                cand &= d
                if not cand:
                    break
        else:
            return True
    return False


def _scan_ideal(
    ideal: SquarefreeIdeal, fields: tuple[int, ...]
) -> dict[int, tuple[int, int, int]]:
    """Max (t+1) over induced subcomplexes, per field.

    Returns {field: (value, witness_mask, witness_degree)}.  Only the
    LCM-lattice elements W (unions of generators) are scanned: any other
    subset has a vertex in no contained generator, a cone apex, so its
    complex is acyclic.  An element whose complex has a dominated vertex
    v is skipped too: deleting v is a strong collapse onto the complex
    of W - v (Barmak-Minian), which has the same homology in every
    field, and W - v (or the smaller element it reduces to) comes later
    in the scan with the same value.  Elements go by descending size,
    then ascending variable tuple, and an element of size s cannot beat
    a value of s - 1, which bounds the scan.  The witness is the first
    domination-free element that attains the value.
    """
    best = {p: (0, 0, -1) for p in fields}
    gens = ideal.gens
    table = _domination_table(gens, ideal.num_vars)
    floor = 0  # the least value over the fields
    for wmask in _lcm_lattice(gens, ideal.num_vars):
        if wmask.bit_count() - 1 <= floor:
            break
        if _has_dominated_vertex(wmask, table):
            continue
        local, k = _compress([g for g in gens if g & ~wmask == 0], wmask)
        by_size = _faces_by_size(local, k)
        # H~_{s-1} = |F_s| - r_s - r_{s+1} can raise a field's value
        # only for s above its best, so walk down from the top face
        # size, one new rank per step, to the first nonzero degree.
        live = fields
        r_above = dict.fromkeys(fields, 0)
        for s in range(len(by_size) - 1, 0, -1):
            live = tuple(p for p in live if s > best[p][0])
            if not live:
                break
            r_here = _boundary_ranks(by_size, s, live)
            for p in live:
                if len(by_size[s]) > r_here[p] + r_above[p]:
                    best[p] = (s, wmask, s - 1)
            r_above = r_here
        floor = min(b[0] for b in best.values())
    return best


def regularity_squarefree(
    ideal: SquarefreeIdeal, p: int, max_vars: int = DEFAULT_VAR_CAP
) -> "RegularityResult":
    """Regularity of the quotient by a squarefree monomial ideal over GF(p)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ideal.num_vars > max_vars:
        raise ResourceLimitError(
            f"subset scan capped at {max_vars} variables (got {ideal.num_vars})"
        )
    if max_vars > DEFAULT_VAR_CAP:
        warnings.warn(
            f"variable cap raised to {max_vars}; the lattice scan is exponential",
            RuntimeWarning,
            stacklevel=2,
        )
    value, wmask, t = _scan_ideal(ideal, (p,))[p]
    return RegularityResult(value, frozenset(bits(wmask)), t, (p,), True)


# -- regularity of binomial edge ideals ------------------------------------


@dataclass(frozen=True)
class RegularityResult:
    """Regularity value with a reproducible homology witness.

    ``witness_vars`` is a variable subset W and ``witness_degree`` a
    degree t with nonzero reduced homology of the induced subcomplex on
    W; value = t + 1.  The zero witness is (empty W, degree -1).
    """

    value: int
    witness_vars: frozenset[int]
    witness_degree: int
    fields_used: tuple[int, ...]
    agreement: bool


def require_field_agreement(values_by_prime: dict[int, int]) -> None:
    """Raise with every per-field value on disagreement; never pick one."""
    if len(set(values_by_prime.values())) > 1:
        raise FieldDisagreementError(values_by_prime)


def component_subgraphs(g: Graph) -> list[tuple[Graph, Sequence[int]]]:
    """Each connected component of g as its own induced subgraph (labels
    ascending, as in ``induced_delete``) with the map back to g's
    labels, at a cost linear in the component's size."""
    comps = g.component_masks()
    if len(comps) == 1:
        return [(g, range(g.n))]
    out = []
    for comp in comps:
        back = list(bits(comp))
        new = {v: i for i, v in enumerate(back)}
        rows = tuple(sum(1 << new[u] for u in bits(g.adj[v])) for v in back)
        out.append((Graph(len(back), rows), back))
    return out


@lru_cache(maxsize=_COMPONENT_CACHE_SIZE)
def _component_regularity(
    g: Graph, fields: tuple[int, ...], cap: int
) -> tuple[int, int, int]:
    """(value, witness_mask, witness_degree) for a connected graph."""
    ideal = initial_ideal(g, max_vertices=cap)
    best = _scan_ideal(ideal, fields)
    require_field_agreement({p: best[p][0] for p in fields})
    value, wmask, t = best[fields[0]]
    return value, wmask, t


def regularity_bei(
    g: Graph,
    fields: tuple[int, ...] = DEFAULT_FIELDS,
    component_cap: int = DEFAULT_COMPONENT_CAP,
) -> RegularityResult:
    """Regularity of the quotient by the binomial edge ideal of g.

    Computed per connected component (values add; witnesses join with
    degrees t = sum(t_i + 1) - 1) over every requested field.  The cap
    applies to each component's vertex count.
    """
    if not fields:
        raise ValueError("fields must name at least one prime")
    for p in fields:
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
    if component_cap > DEFAULT_COMPONENT_CAP:
        warnings.warn(
            f"component cap raised to {component_cap}; the lattice scan still grows "
            "exponentially with component size",
            RuntimeWarning,
            stacklevel=2,
        )
    total = 0
    witness: set[int] = set()
    for sub, back in component_subgraphs(g):
        if sub.n > component_cap:
            raise ResourceLimitError(
                f"component with {sub.n} vertices exceeds cap {component_cap}"
            )
        value, wmask, _t = _component_regularity(sub, tuple(fields), component_cap)
        total += value
        for v in bits(wmask):
            witness.add(back[v] if v < sub.n else g.n + back[v - sub.n])
    return RegularityResult(total, frozenset(witness), total - 1, tuple(fields), True)
