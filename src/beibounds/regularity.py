"""Desk-scale regularity oracle for binomial edge ideals.

The quotient by the binomial edge ideal of a graph on n vertices lives
in 2n variables x_0..x_{n-1}, y_0..y_{n-1} (variable index i is x_i,
n+i is y_i).  Under the lexicographic order x_0 > ... > x_{n-1} > y_0 >
... > y_{n-1} the initial ideal is squarefree, and its minimal
generators are one monomial per admissible path (Herzog-Hibi-
Hreinsdottir-Kahle-Rauh 2010, Thm 3.2).  An admissible path from i to
j (i < j) is label-valid, each interior vertex being < i or > j, and
has no chord.  It contributes
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

Disconnected graphs are handled per ``Graph.component_subgraphs`` (the
quotient is a tensor product over disjoint variable sets, so regularity
adds and witnesses join), which keeps the per-scan variable count at
2 * (component size).

The vertex count does not predict the cost, so each call of the
admissible-path walk and of the scan counts its work (a stack pop; a
lattice element or a face built) and raises ResourceLimitError, naming
the stage, past ``SCAN_BUDGET`` units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import FieldDisagreementError, ResourceLimitError
from .graphs import Graph, bits, minimalize, relabel
from .rank_modp import rank_gf2, rank_gf3, rank_modp

# Work units per call: steps of one admissible-path walk, or lattice
# elements plus faces built in one scan.
SCAN_BUDGET = 600_000
FIELDS = (2, 3)  # regularity_bei computes over both and requires agreement
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
            masks.append(_variable_mask(sup, num_vars))
            if not masks[-1]:
                raise ValueError("empty generator (unit ideal) not supported")
        return cls(num_vars, minimalize(masks))

    def supports(self) -> list[tuple[int, ...]]:
        return [tuple(bits(m)) for m in self.gens]


def _variable_mask(indices: Iterable[int], num_vars: int) -> int:
    """Bitmask of variable indices, each checked to lie in 0..num_vars-1."""
    mask = 0
    for v in indices:
        if not 0 <= v < num_vars:
            raise ValueError(f"variable index {v} out of range")
        mask |= 1 << v
    return mask


def variable_name(idx: int, n: int) -> str:
    return f"x{idx}" if idx < n else f"y{idx - n}"


# -- initial ideal of the binomial edge ideal ------------------------------


def initial_ideal(g: Graph) -> SquarefreeIdeal:
    """Squarefree initial ideal of the binomial edge ideal of g.

    Its minimal generators are the monomials of the admissible paths,
    one per path (Herzog-Hibi-Hreinsdottir-Kahle-Rauh 2010, Thm 3.2):
    the label-valid paths with no chord.  A depth-first walk from each
    i toward each j > i steps only to a vertex that the label rule
    allows, that is adjacent to the path's end and to none of its
    earlier vertices (``blocked`` holds their closed neighbourhoods),
    and stops at the first vertex adjacent to j, so it closes each
    admissible path once.  Each stack pop is one step, and past
    ``SCAN_BUDGET`` steps it raises ResourceLimitError.
    """
    n, adj = g.n, g.adj
    gens = []
    steps = 0
    for i in range(n):
        low = (1 << i) - 1  # vertices < i
        for j in range(i + 1, n):
            high = g.full_mask() >> (j + 1) << (j + 1)  # vertices > j
            stack = [(i, 0, 0)]  # (path end, blocked, interior)
            while stack:
                steps += 1
                if steps > SCAN_BUDGET:
                    raise ResourceLimitError(f"admissible-path walk exceeded {SCAN_BUDGET} steps")
                cur, blocked, interior = stack.pop()
                if adj[cur] >> j & 1:
                    gens.append(1 << i | 1 << (n + j) | interior & high | (interior & low) << n)
                    continue
                for nxt in bits(adj[cur] & (low | high) & ~blocked):
                    stack.append((nxt, blocked | adj[cur] | 1 << cur, interior | 1 << nxt))
    return SquarefreeIdeal(2 * n, tuple(sorted(gens)))


# -- induced subcomplex homology -------------------------------------------


def _scan_over_budget() -> ResourceLimitError:
    return ResourceLimitError(f"lattice scan exceeded {SCAN_BUDGET} work units")


def _faces_by_size(gens: Iterable[int], wmask: int, room: float = float("inf")) -> list[list[int]]:
    """Faces of the complex restricted to ``wmask``, relabeled onto 0..k-1.

    Returns lists of face bitmasks grouped by face size (index 0 holds
    the empty face).  A face of size s + 1 extends a face of size s by a
    vertex above its top vertex, so each face is built once, and only
    the generators through that vertex can block it.  Past ``room``
    faces, the empty face included, it raises ResourceLimitError; the
    check runs once per face size.
    """
    k = wmask.bit_count()
    local_gens = relabel([g for g in gens if g & ~wmask == 0], wmask)
    through = [[g for g in local_gens if g >> v & 1] for v in range(k)]
    by_size = []
    level = [0]
    while level:
        room -= len(level)
        if room < 0:
            raise _scan_over_budget()
        by_size.append(level)
        level = []
        for f in by_size[-1]:
            for v in range(f.bit_length(), k):
                h = f | 1 << v
                for g in through[v]:
                    if g & h == g:
                        break
                else:
                    level.append(h)
    return by_size


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


def homology_dims(ideal: SquarefreeIdeal, w: Iterable[int], p: int) -> dict[int, int]:
    """Reduced homology dimensions of the Stanley-Reisner complex of
    ``ideal`` restricted to the variable subset ``w``, over GF(p).

    Keys run from -1 (the empty complex {()} reports dimension 1 there)
    to the dimension of the restricted complex.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    wmask = _variable_mask(w, ideal.num_vars)
    return _reduced_homology(_faces_by_size(ideal.gens, wmask), p)


# -- regularity of squarefree ideals ---------------------------------------


def _lcm_lattice(gens: tuple[int, ...]) -> set[int]:
    """Nonempty unions of generators, unordered.  Past ``SCAN_BUDGET``
    of them it raises ResourceLimitError before the set takes them in."""
    lattice = {0}
    for g in gens:
        new = {x | g for x in lattice}
        if len(lattice) + len(new) - 1 > SCAN_BUDGET:
            new -= lattice  # only when the sizes alone do not settle it
            if len(lattice) + len(new) - 1 > SCAN_BUDGET:
                raise _scan_over_budget()
        lattice |= new
    lattice.discard(0)
    return lattice


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


def _scan_ideal(ideal: SquarefreeIdeal, fields: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """Max (t+1) over induced subcomplexes, per field.

    Returns {field: (value, witness_mask)}; the witness degree is
    value - 1, and (0, 0) is the zero result.  Only the LCM-lattice
    elements W (unions of generators) are candidates: any other subset
    has a vertex in no contained generator, a cone apex, so its complex
    is acyclic.  An element whose complex has a dominated vertex v is
    dropped before ordering: deleting v is a strong collapse onto the
    complex of W - v (Barmak-Minian), which has the same homology in
    every field, and W - v (or the smaller element it reduces to) is
    ranked instead with the same value.  The rest go by descending size,
    then ascending variable tuple, and an element of size s cannot beat
    a value of s - 1, which bounds the scan.  The witness is the first
    domination-free element that attains the value.  Past ``SCAN_BUDGET``
    lattice elements plus faces built it raises ResourceLimitError.
    """
    best = dict.fromkeys(fields, (0, 0))
    gens = ideal.gens
    lattice = _lcm_lattice(gens)
    used = len(lattice)
    table = _domination_table(gens, ideal.num_vars)
    survivors = sorted(
        (w for w in lattice if not _has_dominated_vertex(w, table)),
        key=lambda w: (-w.bit_count(), list(bits(w))),
    )
    floor = 0  # the least value over the fields
    for wmask in survivors:
        if wmask.bit_count() - 1 <= floor:
            break
        by_size = _faces_by_size(gens, wmask, SCAN_BUDGET - used)
        used += sum(map(len, by_size))
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
                    best[p] = (s, wmask)
            r_above = r_here
        floor = min(b[0] for b in best.values())
    return best


def regularity_squarefree(ideal: SquarefreeIdeal, p: int) -> "RegularityResult":
    """Regularity of the quotient by a squarefree monomial ideal over GF(p);
    the scan is exponential, so past ``SCAN_BUDGET`` work units it raises
    ResourceLimitError."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    value, wmask = _scan_ideal(ideal, (p,))[p]
    return RegularityResult(value, frozenset(bits(wmask)), value - 1, (p,), True)


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


@lru_cache(maxsize=_COMPONENT_CACHE_SIZE)
def _component_regularity(g: Graph) -> tuple[int, int]:
    """(value, witness_mask) over ``FIELDS`` for a connected graph."""
    best = _scan_ideal(initial_ideal(g), FIELDS)
    require_field_agreement({p: best[p][0] for p in FIELDS})
    return best[FIELDS[0]]


def regularity_bei(g: Graph) -> RegularityResult:
    """Regularity of the quotient by the binomial edge ideal of g.

    Computed on each of ``g.component_subgraphs()`` (values add; witnesses
    join, mapped back to g's labels, with degrees t = sum(t_i + 1) - 1)
    over both fields of ``FIELDS``, which must agree.  ``SCAN_BUDGET``
    applies to the walk and to the scan of each component.
    """
    total = 0
    witness: set[int] = set()
    for sub, back in g.component_subgraphs():
        value, wmask = _component_regularity(sub)
        total += value
        for v in bits(wmask):
            witness.add(back[v] if v < sub.n else g.n + back[v - sub.n])
    return RegularityResult(total, frozenset(witness), total - 1, FIELDS, True)
