import pytest
from hypothesis import given, settings, strategies as st

from markoffmodp.ffield import PROVEN_PRIME_BOUND, factorize, field, is_prime, rref_mod


PRIMES = (5, 7, 11, 13, 17, 31, 101, 103)


def test_field_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            field(bad)


def test_quad_char_examples():
    assert field(7).quad_char(0) == 0
    assert field(7).quad_char(2) == 1   # 3^2 = 2 mod 7
    assert field(5).quad_char(2) == -1


def test_sqrt_examples():
    assert field(7).sqrt(0) == 0
    assert field(7).sqrt(2) == 3
    assert field(11).sqrt(3) == 5


@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=200))
@settings(max_examples=80, deadline=None)
def test_sqrt_contract(p, a):
    F = field(p)
    a %= p
    s = F.sqrt(a)
    if s is None:
        assert F.quad_char(a) == -1
    else:
        assert s * s % p == a
        assert s <= p - s  # deterministic representative


def test_rotation_order_of_zero_is_four():
    for p in PRIMES:
        assert field(p).rotation_order(0) == 4


def test_rotation_order_of_two_is_two():
    for p in PRIMES:
        assert field(p).rotation_order(2) == 2
        assert field(p).rotation_order(p - 2) == 2


def test_rotation_order_example_mod_7():
    # the root 3 of t^2 - t + 1 has order 6 mod 7
    assert field(7).rotation_order(1) == 6


@pytest.mark.parametrize("p", (5, 7, 11, 13, 23, 31))
def test_rotation_order_properties(p):
    F = field(p)
    for a in range(p):
        o = F.rotation_order(a)
        assert o == F.rotation_order((-a) % p)
        assert o % 2 == 0
        chi = F.quad_char((a * a - 4) % p)
        if chi == 1:
            assert (p - 1) % o == 0
        elif chi == -1:
            assert (p + 1) % o == 0
        else:
            assert o == 2


def test_root_order_is_least_k_with_v_k_two():
    # V_k = zeta^k + zeta^-k, stepped by V_(k+1) = alpha*V_k - V_(k-1) from
    # (V_0, V_1) = (2, alpha); zeta^k = 1 exactly when V_k = 2
    for p in range(3, 62):
        if not is_prime(p):
            continue
        F = field(p)
        for a in range(p):
            prev, v, k = 2, a, 1
            while v != 2:
                prev, v, k = v, (a * v - prev) % p, k + 1
            assert F.root_order(a) == k, (p, a)


def test_factorize_roundtrip():
    for n in (2, 12, 97, 1320, 27720):
        f = factorize(n)
        out = 1
        for q, e in f.items():
            assert is_prime(q)
            out *= q**e
        assert out == n


def test_proven_bound_is_the_least_twelve_base_pseudoprime():
    # psi_12 (Sorenson & Webster 2015): composite, yet is_prime passes it
    assert PROVEN_PRIME_BOUND == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(PROVEN_PRIME_BOUND)


@given(
    st.sampled_from((3, 5, 7, 101)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_rref_mod_against_sympy(p, nrows, ncols, data):
    sympy = pytest.importorskip("sympy")
    rows = data.draw(st.lists(
        st.lists(st.integers(min_value=-3 * p, max_value=3 * p), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ))
    reduced, pivots, det = rref_mod(rows, p)
    gf = sympy.GF(p)
    dm = sympy.polys.matrices.DomainMatrix([[gf(v) for v in r] for r in rows], (nrows, ncols), gf)
    assert len(pivots) == dm.rank()
    assert tuple(pivots) == tuple(dm.rref()[1])
    assert len(reduced) == len(pivots)
    for row, c in zip(reduced, pivots):
        assert row[c] == 1 and all(v == 0 for v in row[:c])
    if nrows == ncols:
        assert det == sympy.Matrix(rows).det() % p
    else:
        assert det is None
