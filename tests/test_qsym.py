import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.qsym import (
    CQSym,
    NotCyclicError,
    QSym,
    TruncPoly,
    cyclic_fundamental,
    cyclic_monomial,
    from_qsym,
    fundamental,
    monomial,
)
from toricpeaks.enriched import kcyc
from toricpeaks import setcomp
from toricpeaks.setcomp import _mask, phi
from toricpeaks.verify import _cyclic_fundamental_via_F, _fcyc_pair_oracle


def test_fundamental_is_superset_sum():
    f = fundamental(4, {1, 3})
    assert f.terms == {frozenset({1, 3}): 1, frozenset({1, 2, 3}): 1}
    assert fundamental(3, set()).terms == {
        frozenset(): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({1, 2}): 1,
    }


def test_monomial_fundamental_roundtrip():
    for n in range(0, 6):
        for k in range(0, max(n, 1)):
            for S in itertools.combinations(range(1, n), k):
                m = monomial(n, S)
                back = QSym.from_fundamental(n, m.to_fundamental())
                assert back == m


def quasi_shuffle(alpha, beta):
    """Overlapping shuffles of two compositions, with multiplicity: the
    oracle for ``QSym.__mul__``."""
    if not alpha:
        yield beta
        return
    if not beta:
        yield alpha
        return
    for tail in quasi_shuffle(alpha[1:], beta):
        yield (alpha[0],) + tail
    for tail in quasi_shuffle(alpha, beta[1:]):
        yield (beta[0],) + tail
    for tail in quasi_shuffle(alpha[1:], beta[1:]):
        yield (alpha[0] + beta[0],) + tail


def test_quasi_shuffle_counts():
    out = list(quasi_shuffle((1,), (1,)))
    assert sorted(out) == [(1, 1), (1, 1), (2,)]
    out = list(quasi_shuffle((2,), (1, 1)))
    assert (3, 1) in out and (1, 2, 1) in out


def _quasi_shuffle_product(a: QSym, b: QSym) -> QSym:
    """Product term by term over the quasi-shuffles of the compositions."""
    out: dict[frozenset, int] = {}
    for E, x in a.terms.items():
        for L, y in b.terms.items():
            for gamma in quasi_shuffle(phi(E, a.degree), phi(L, b.degree)):
                key = frozenset(itertools.accumulate(gamma[:-1]))
                out[key] = out.get(key, 0) + x * y
    return QSym(a.degree + b.degree, out)


@st.composite
def qsym_elements(draw, degree):
    if degree > 1:
        subsets = st.frozensets(st.integers(1, degree - 1))
    else:
        subsets = st.just(frozenset())
    terms = st.dictionaries(subsets, st.integers(-3, 3), min_size=1, max_size=4)
    return QSym(degree, draw(terms))


@st.composite
def qsym_pairs(draw, max_degree=9):
    p = draw(st.integers(0, max_degree))
    q = draw(st.integers(0, max_degree - p))
    return draw(qsym_elements(p)), draw(qsym_elements(q))


@settings(deadline=None)
@given(qsym_pairs())
def test_product_matches_quasi_shuffle(pair):
    a, b = pair
    assert a * b == _quasi_shuffle_product(a, b)


def _descending(x: QSym) -> QSym:
    """x rebuilt with its masks dict filled from the largest mask down."""
    order = sorted(x.terms, key=lambda E: _mask(E, x.degree), reverse=True)
    out = QSym(x.degree, {E: x.terms[E] for E in order})
    assert list(out.masks) == sorted(out.masks, reverse=True)
    return out


# Right factors whose terms share long partial-sum prefixes, or none.
_DENSE = fundamental(4, ())  # every subset of [3]
_KCYC = kcyc({1, 3}, 5).as_qsym()
_CANCEL = monomial(2, {1}) - monomial(2, ())  # M_1 times it cancels M_12, M_21
_KERNEL_CASES = [
    (monomial(3, {1}), _DENSE),
    (fundamental(3, ()), _DENSE),
    (_DENSE, fundamental(2, {1})),
    (fundamental(2, ()) - 2 * monomial(2, {1}), _KCYC),
    (_KCYC, monomial(1, ())),
    (monomial(3, ()), _KCYC),  # one-part factors on either side
    (_DENSE, monomial(4, ())),
    (QSym.unit(3), _DENSE),  # degree 0 on either side
    (_KCYC, QSym.unit(-2)),
    (QSym.zero(0), monomial(2, {1})),
    (QSym.unit(1), QSym.unit(5)),
    (monomial(1, ()), _CANCEL),
    (_CANCEL, 3 * _CANCEL),
    (monomial(2, {1}), _descending(_DENSE)),
    (fundamental(2, ()), _descending(_KCYC)),
]


@pytest.mark.parametrize("a, b", _KERNEL_CASES)
def test_product_kernel_cases(a, b):
    assert a * b == _quasi_shuffle_product(a, b)
    assert b * a == _quasi_shuffle_product(b, a)


def test_product_cancels_signed_terms():
    assert monomial(1, ()) * _CANCEL == QSym(3, {frozenset({1, 2}): 3, frozenset(): -1})


@st.composite
def qsym_factors(draw, max_degree=3):
    """a, b, b2 and c, with b and b2 of one degree, all degrees at most
    max_degree."""
    p, q, r = (draw(st.integers(0, max_degree)) for _ in range(3))
    return tuple(draw(qsym_elements(d)) for d in (p, q, q, r))


@settings(deadline=None)
@given(qsym_factors())
def test_product_ring_axioms(factors):
    a, b, b2, c = factors
    m = 3
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + b2) == a * b + a * b2
    assert (b + b2) * a == b * a + b2 * a


def test_product_matches_truncated_polynomial_oracle():
    m = 4
    cases = [
        (monomial(2, {1}), monomial(1, set())),
        (monomial(2, set()), monomial(2, {1})),
        (fundamental(2, {1}), fundamental(1, set())),
        (monomial(3, {1, 2}), monomial(2, {1})),
    ]
    for a, b in cases:
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


def test_specialize_ones():
    assert monomial(4, {1, 3}).specialize_ones(3) == 1
    assert monomial(4, set()).specialize_ones(3) == 3
    assert fundamental(2, set()).specialize_ones(2) == 3


def test_degree_mismatch_add_raises():
    mismatched = [
        (monomial(2, {1}), monomial(3, {1})),
        (QSym.zero(3), monomial(2, {1})),  # a zero has a degree too
        (CQSym.zero(3), cyclic_monomial(2, {1})),
    ]
    for a, b in mismatched:
        with pytest.raises(ValueError):
            a + b


def test_qsym_and_cqsym_never_mix():
    terms = {frozenset({1}): 3}
    a, b = QSym(3, terms), CQSym(3, terms)
    assert a.degree == b.degree and a.terms == b.terms
    assert a != b and b != a
    with pytest.raises(TypeError):
        a + b
    assert a * 3 == a.scale(3) and b * 3 == b.scale(3)
    # A CQSym key keeps element n at bit 0, which a QSym product would drop.
    mixed = [(monomial(2, {1}), cyclic_monomial(3, {1, 2, 3})), (b, a)]
    for x, y in mixed + [(a, 1.5), (b, 1.5), (1.5, a)]:
        with pytest.raises(TypeError):
            x * y


def test_public_constructors_reject_bad_keys():
    with pytest.raises(ValueError):
        QSym(3, {frozenset({3}): 1})
    with pytest.raises(ValueError):
        CQSym(4, {frozenset({2}): 1})  # the class key is {1}
    with pytest.raises(ValueError):
        CQSym(0, {frozenset({1}): 1})
    with pytest.raises(ValueError):
        monomial(3, {3})
    with pytest.raises(ValueError):
        QSym.from_json('{"basis": "M", "degree": 2, "terms": [{"set": [2], "coeff": 1}]}')
    with pytest.raises(ValueError):
        CQSym.from_json('{"basis": "Mcyc", "degree": 3, "terms": [{"set": [2], "coeff": 1}]}')
    with pytest.raises(ValueError):
        QSym.from_fundamental(3, {frozenset({3}): 1})
    for cls in (QSym, CQSym):
        with pytest.raises(ValueError, match="unknown basis 'Q'"):
            cls.from_json('{"basis": "Q", "degree": 2, "terms": []}')
    with pytest.raises(ValueError, match="nonempty index set"):
        cyclic_fundamental(4, ())


def test_json_roundtrip_both_bases():
    a = 3 * fundamental(4, {2}) - monomial(4, {1, 3})
    assert QSym.from_json(a.to_json("M")) == a
    assert QSym.from_json(a.to_json("F")) == a
    big = kcyc({1}, 12).as_qsym()  # 2048 F-terms
    assert QSym.from_json(big.to_json("F")) == big


def test_cyclic_monomial_expansions_of_degree_4():
    assert cyclic_monomial(4, {4}).as_qsym() == QSym(4, {frozenset(): 1})
    assert cyclic_monomial(4, {1, 3}).as_qsym() == QSym(4, {frozenset({2}): 2})
    assert cyclic_monomial(4, {1, 2, 3, 4}).as_qsym() == QSym(
        4, {frozenset({1, 2, 3}): 4}
    )


def test_cyclic_monomial_shift_invariance_and_zero():
    assert cyclic_monomial(4, {1, 3}) == cyclic_monomial(4, {2, 4})
    assert cyclic_monomial(4, set()) == CQSym.zero(4)
    assert not QSym.zero(3) and repr(QSym.zero(3)) == "QSym(3, 0)"


def test_cyclic_fundamental_degree_4():
    elem = cyclic_fundamental(4, {1, 3})
    assert elem.terms == {
        frozenset({1, 3}): 1,
        frozenset({1, 2, 3}): 2,
        frozenset({1, 2, 3, 4}): 1,
    }
    expected = QSym(
        4,
        {
            frozenset({2}): 2,
            frozenset({1, 2}): 2,
            frozenset({1, 3}): 2,
            frozenset({2, 3}): 2,
            frozenset({1, 2, 3}): 4,
        },
    )
    assert elem.as_qsym() == expected
    assert _cyclic_fundamental_via_F(4, {1, 3}) == expected


def test_cyclic_fundamental_shift_invariance():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for S in itertools.combinations(range(1, n + 1), k):
                base = cyclic_fundamental(n, S)
                shifted = frozenset((s % n) + 1 for s in S)
                assert cyclic_fundamental(n, shifted) == base


def test_cyclic_fundamental_above_the_table_degree_builds_no_table():
    # Three terms; a degree-24 class table would take 2^24 entries.
    elem = cyclic_fundamental(24, range(1, 23))
    assert elem.terms == {
        frozenset(range(1, 23)): 1,
        frozenset(range(1, 24)): 2,
        frozenset(range(1, 25)): 1,
    }
    assert 24 not in setcomp._TABLES


def test_from_qsym_recovers_cyclic_elements():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for S in itertools.combinations(range(1, n + 1), k):
                elem = cyclic_monomial(n, S)
                assert from_qsym(elem.as_qsym()) == elem


def test_from_qsym_rejects_non_cyclic():
    with pytest.raises(NotCyclicError):
        from_qsym(monomial(4, {1}))
    # right multiple of one class member, wrong on the rest
    bad = QSym(4, {frozenset({1}): 2})
    with pytest.raises(NotCyclicError):
        from_qsym(bad)


def test_from_qsym_divisibility():
    ok = QSym(4, {frozenset({2}): 2})
    assert from_qsym(ok) == cyclic_monomial(4, {1, 3})
    with pytest.raises(NotCyclicError):
        from_qsym(QSym(4, {frozenset({2}): 3}))


def test_cqsym_product_stays_cyclic():
    a = cyclic_monomial(2, {1})
    b = cyclic_monomial(1, {1})
    prod = a * b
    assert prod.degree == 3
    assert from_qsym(prod.as_qsym()) == prod


def test_cqsym_json_roundtrip():
    elem = cyclic_fundamental(4, {1, 3}).scale(2)
    assert CQSym.from_json(elem.to_json()) == elem


def test_pair_oracle_small_cases():
    for n, E in [(2, {1}), (3, {1, 2}), (3, {2})]:
        elem = cyclic_fundamental(n, E)
        for m in (1, 2, 3):
            assert _fcyc_pair_oracle(n, E, m) == elem.truncate(m)


@st.composite
def cqsym_elements(draw, max_degree=8):
    n = draw(st.integers(0, max_degree))
    if n == 0:
        return CQSym.unit(draw(st.integers(-3, 3)))
    subsets = st.frozensets(st.integers(1, n), min_size=1)
    terms = draw(st.lists(st.tuples(subsets, st.integers(-3, 3)), max_size=4))
    return sum((cyclic_monomial(n, E).scale(c) for E, c in terms), CQSym.zero(n))


@settings(deadline=None)
@given(cqsym_elements())
def test_cqsym_roundtrips(x):
    assert from_qsym(x.as_qsym()) == x
    assert CQSym.from_json(x.to_json()) == x
    assert CQSym(x.degree, x.terms) == x


@settings(deadline=None)
@given(st.integers(0, 8).flatmap(qsym_elements))
def test_qsym_roundtrips(x):
    assert QSym.from_json(x.to_json("M")) == x
    assert QSym.from_json(x.to_json("F")) == x
    assert QSym(x.degree, x.terms) == x


def test_keys_are_masks_and_terms_a_read_only_view():
    # Element e of a degree-n key sits at bit n - e.
    x = monomial(4, {1, 3}).scale(5)
    assert x.masks == {0b1010: 5}
    assert x.terms == {frozenset({1, 3}): 5}
    assert cyclic_monomial(4, {2, 4}).masks == {0b1010: 1}
    with pytest.raises(TypeError):
        x.terms[frozenset()] = 1
    with pytest.raises(AttributeError):
        x.terms = {}


def test_degree_zero_units():
    for unit in (QSym.unit(3), CQSym.unit(3)):
        assert unit.masks == {0: 3} and unit.terms == {frozenset(): 3}
        assert unit.specialize_ones(4) == 3  # no parts: C(4, 0) = 1
        assert unit.truncate(2) == TruncPoly(2, {(0, 0): 3})
    assert monomial(0, ()) == QSym.unit(1)
    assert from_qsym(QSym.unit(2)) == CQSym.unit(2)
    assert CQSym.unit(2).as_qsym() == QSym.unit(2)
