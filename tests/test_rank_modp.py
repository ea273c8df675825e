import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beibounds.rank_modp import rank_gf2, rank_gf3, rank_modp
from brute import numpy_rank_modp

# det = 3: rank 2 over GF(3), full rank over every other prime
TORSION3 = [[1, -1, 0], [0, 1, -1], [1, 1, 1]]


def bit_sliced(m):
    """(pos, neg) bitmask pairs of a matrix with entries in {-1, 0, 1}."""
    return [
        (sum(1 << c for c, x in enumerate(row) if x == 1),
         sum(1 << c for c, x in enumerate(row) if x == -1))
        for row in m
    ]


def test_identity_full_rank():
    assert rank_modp(np.eye(4, dtype=int), 2) == 4
    assert rank_modp(np.eye(4, dtype=int), 3) == 4


def test_repeated_rows_rank_one():
    m = np.array([[1, 1, 0], [1, 1, 0], [2, 2, 0]])
    assert rank_modp(m, 3) == 1
    assert rank_modp(m, 2) == 1


def test_rank_drops_only_in_matching_characteristic():
    m = np.array([[2, 0], [0, 3]])
    assert rank_modp(m, 2) == 1
    assert rank_modp(m, 3) == 1
    assert rank_modp(m, 5) == 2


def test_signs_matter_mod_odd():
    m = np.array([[1, -1], [-1, 1]])
    assert rank_modp(m, 3) == 1


def test_rank_gf2_bitrows():
    # rows 101, 011, 110: third = first xor second
    assert rank_gf2([0b101, 0b011, 0b110]) == 2
    assert rank_gf2([0, 0]) == 0
    assert rank_gf2([1]) == 1


def test_three_torsion_only_in_characteristic_3():
    assert rank_gf3(bit_sliced(TORSION3)) == 2
    assert numpy_rank_modp(TORSION3, 3) == 2
    assert rank_modp(TORSION3, 3) == 2
    for p in (2, 5, 7):
        assert rank_modp(TORSION3, p) == numpy_rank_modp(TORSION3, p) == 3


def test_rank_modp_accepts_plain_rows():
    assert rank_modp([], 5) == 0
    assert rank_modp([[0, 0], [0, 0]], 7) == 0
    assert rank_modp(((1, 2), (2, 4)), 5) == 1
    assert rank_modp([(1, 2), (2, 4)], 3) == 1


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6])
def test_rank_modp_rejects_a_modulus_that_is_not_prime(p):
    """A composite, unit, zero or negative modulus raises instead of
    returning a rank over no field (or failing in ``pow``)."""
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        rank_modp([[1, 2], [2, 4]], p)


@given(st.integers(0, 2 ** 30 - 1), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_gf2_paths_agree(bits_seed, rows, cols):
    rng = np.random.default_rng(bits_seed)
    m = rng.integers(0, 2, size=(rows, cols))
    packed = [int("".join(map(str, r)), 2) for r in m]
    assert rank_gf2(packed) == numpy_rank_modp(m, 2) == rank_modp(m, 2)


@given(st.integers(0, 2 ** 30 - 1), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_gf3_kernel_matches_numpy_reference(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.integers(-1, 2, size=(rows, cols))
    for a in (m, m.T):
        assert rank_gf3(bit_sliced(a.tolist())) == numpy_rank_modp(a, 3) == rank_modp(a, 3)


@given(st.integers(0, 2 ** 30 - 1), st.sampled_from([5, 7, 11]))
@settings(max_examples=100, deadline=None)
def test_odd_prime_elimination_matches_numpy_reference(seed, p):
    rng = np.random.default_rng(seed)
    m = rng.integers(-p, p + 1, size=(5, 6))
    assert rank_modp(m, p) == numpy_rank_modp(m, p)
    assert rank_modp(m.tolist(), p) == numpy_rank_modp(m, p)


@given(st.integers(0, 2 ** 30 - 1))
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_transpose(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-2, 3, size=(5, 7))
    for p in (2, 3, 5):
        assert rank_modp(m, p) == rank_modp(m.T, p)


@given(st.integers(0, 2 ** 30 - 1))
@settings(max_examples=100, deadline=None)
def test_rank_bounded_by_rational_rank(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-1, 2, size=(4, 6))
    q_rank = np.linalg.matrix_rank(m.astype(float))
    for p in (2, 3):
        assert rank_modp(m, p) <= q_rank
