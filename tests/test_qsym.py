import itertools
import json
import math
import random
import re
import time
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.qsym import (
    CQSym,
    NotCyclicError,
    QSym,
    _class_expansion,
    _ranked,
    cyclic_fundamental,
    cyclic_monomial,
    from_qsym,
    fundamental,
    monomial,
)
from toricpeaks.enriched import kcyc
from toricpeaks import setcomp
from toricpeaks.setcomp import _mask, phi
from toricpeaks.verify import _cyclic_fundamental_via_F, _fcyc_pair_oracle, _truncate


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
# Coefficients near 10^30 of both signs, for the packed cells of degree at
# most 10. A digit of 10^30 M_1 * 10^30 M_1 is 2 * 10^60, above 2^200, so
# one byte less than its width of 26 bytes would drop its top bit.
_HUGE_M1 = 10**30 * monomial(1, ())
_HUGE = 10**30 * monomial(2, {1}) - (10**30 + 7) * monomial(2, ())
_HUGE_RIGHT = (1 - 10**30) * monomial(2, {1}) + 10**30 * monomial(2, ())
_HUGE_FOUR = QSym(
    4, {frozenset(): -(10**30), frozenset({2}): 10**30 + 1, frozenset({1, 2, 3}): 3 * 10**30}
)


def _two_m1_power(k: int) -> QSym:
    """(2 M_1)^k: 2^k times the multinomial coefficient of each composition
    of k, built without a product."""
    return QSym(
        k,
        {
            frozenset(E): 2**k * math.factorial(k) // math.prod(map(math.factorial, phi(E, k)))
            for r in range(k)
            for E in itertools.combinations(range(1, k), r)
        },
    )


_TWO_M1 = _two_m1_power(1)
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
    (_HUGE_M1, _HUGE_M1),
    (_HUGE_M1, -_HUGE_M1),
    (_HUGE, monomial(1, ())),
    (_HUGE, _HUGE_RIGHT),
    (_HUGE, _HUGE_FOUR),
    (_KCYC, fundamental(5, {2}) - _KCYC),  # degree 10, the last with packed cells
    (_TWO_M1, _two_m1_power(9)),
    # Above degree 10, where the grid cells are dicts.
    (_KCYC, kcyc({1, 3, 5}, 6).as_qsym()),
    (_TWO_M1, _two_m1_power(10)),
    (_TWO_M1, _two_m1_power(12)),
    (10**30 * _CANCEL, _two_m1_power(10)),
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


def _poly_product(p, q):
    """Product of two polynomials in m variables, as maps from exponent
    vectors to coefficients, with zero coefficients dropped."""
    out = defaultdict(int)
    for ka, va in p.items():
        for kb, vb in q.items():
            out[tuple(x + y for x, y in zip(ka, kb))] += va * vb
    return {k: v for k, v in out.items() if v}


@settings(deadline=None)
@given(qsym_factors())
def test_product_ring_axioms(factors):
    a, b, b2, c = factors
    m = 3
    assert _truncate(a * b, m) == _poly_product(_truncate(a, m), _truncate(b, m))
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
        assert _truncate(a * b, m) == _poly_product(_truncate(a, m), _truncate(b, m))


def test_specialize_ones():
    assert monomial(4, {1, 3}).specialize_ones(3) == 1
    assert monomial(4, set()).specialize_ones(3) == 3
    assert fundamental(2, set()).specialize_ones(2) == 3


def test_cyclic_specialize_ones_counts_parts_per_class():
    # Every cyclic class of degree 1 to 10 against its monomial expansion.
    cases = 0
    for n in range(1, 11):
        for K, *_ in setcomp._class_list(n):
            x = CQSym._make(n, {K: 3})
            for m in range(7):
                assert x.specialize_ones(m) == x.as_qsym().specialize_ones(m), (n, K, m)
                cases += 1
    assert cases == 1757


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


def test_public_constructors_reject_bad_degrees_coefficients_and_rows():
    for make in (
        lambda: QSym(-1, {}),
        lambda: CQSym(-3, {}),
        lambda: monomial(-1, ()),
        lambda: fundamental(-2, ()),
        lambda: cyclic_monomial(-1, ()),
        lambda: QSym(True, {}),
        lambda: QSym.from_json('{"basis": "M", "degree": 1.0, "terms": []}'),
    ):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            make()
    with pytest.raises(ValueError, match="not an integer"):
        QSym(2, {frozenset({1}): 1.5})
    with pytest.raises(ValueError, match="not an integer"):
        QSym.from_fundamental(2, {frozenset(): 0.5})
    for cls in (QSym, CQSym):
        with pytest.raises(ValueError, match=r"coefficient True of \[1\] is not an integer"):
            cls(3, {frozenset({1}): True})
    true_row = '[{"set": [1], "coeff": true}]'
    for cls, basis in ((QSym, "M"), (QSym, "F"), (CQSym, "Mcyc")):
        with pytest.raises(ValueError, match="is not an integer"):
            cls.from_json(f'{{"basis": "{basis}", "degree": 3, "terms": {true_row}}}')
    for c in (0.5, True, 1.0):
        for make in (monomial(3, {1}).scale, cyclic_monomial(3, {1}).scale, QSym.unit, CQSym.unit):
            with pytest.raises(ValueError, match="is not an integer"):
                make(c)
    rows = {
        "listed twice": '[{"set": [1], "coeff": 1}, {"set": [1], "coeff": 2}]',
        "repeats an element": '[{"set": [1, 1], "coeff": 1}]',
        "a row must be an object with set and coeff, not 5": "[5]",
        'not {"set": [1]}': '[{"set": [1]}]',
        'not {"coeff": 1}': '[{"coeff": 1}]',
        "set 1 is not a list of integers": '[{"set": 1, "coeff": 1}]',
        'set ["a"] is not': '[{"set": ["a"], "coeff": 1}]',
        "set [1.0] is not": '[{"set": [1.0], "coeff": 1}]',
        "set [true] is not": '[{"set": [true], "coeff": 1}]',
    }
    for cls, basis in ((QSym, "M"), (QSym, "F"), (CQSym, "Mcyc")):
        for error, terms in rows.items():
            with pytest.raises(ValueError, match=re.escape(error)):
                cls.from_json(f'{{"basis": "{basis}", "degree": 3, "terms": {terms}}}')
        for payload in (
            "[1]",
            f'{{"basis": "{basis}", "degree": 3}}',
            '{"degree": 3, "terms": []}',
            f'{{"basis": "{basis}", "terms": []}}',
            f'{{"basis": "{basis}", "degree": 3, "terms": {{}}}}',
        ):
            with pytest.raises(ValueError, match="expected a JSON object with degree"):
                cls.from_json(payload)
    for elem in (monomial(2, {1}), cyclic_monomial(3, {1}), CQSym.unit(2)):
        for m in (-1, 2.0, True):
            with pytest.raises(ValueError, match=f"number of variables {m} is not a nonnegative"):
                elem.specialize_ones(m)


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


def test_cyclic_fundamental_at_degree_24_fills_only_its_orbits(monkeypatch):
    # Three terms; the canonical map holds their three orbits, at most
    # 3 * 24 masks, where a class table would take 2^24 entries.
    monkeypatch.setattr(setcomp, "_CANONICAL", defaultdict(dict))
    elem = cyclic_fundamental(24, range(1, 23))
    assert elem.terms == {
        frozenset(range(1, 23)): 1,
        frozenset(range(1, 24)): 2,
        frozenset(range(1, 25)): 1,
    }
    assert len(setcomp._CANONICAL[24]) <= 3 * 24


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
            assert _fcyc_pair_oracle(n, E, m) == _truncate(elem.as_qsym(), m)


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
    # No parts: the one monomial of degree 0 is 1.
    assert _truncate(QSym.unit(3), 2) == _truncate(CQSym.unit(3).as_qsym(), 2) == {(0, 0): 3}
    assert monomial(0, ()) == QSym.unit(1)
    assert from_qsym(QSym.unit(2)) == CQSym.unit(2)
    assert CQSym.unit(2).as_qsym() == QSym.unit(2)


def test_results_own_their_masks():
    # _make adopts the dict it is handed, so no result may share one with
    # an operand, and zeros must still be dropped.
    x = QSym(3, {frozenset(): 2, frozenset({1}): -1})
    y = QSym(3, {frozenset({2}): 5, frozenset({1}): 1})
    a, b = kcyc({2}, 4), cyclic_fundamental(4, {1})
    unit = QSym.unit(1)
    cases = [
        ((x, y), [x + y, x - y, -x, x.scale(3), x * y, 3 * x, x * 1]),
        ((unit, x), [unit * x, x * unit]),
        ((a, b), [a + b, -a, a.scale(3), a * b]),
    ]
    for operands, results in cases:
        for result in results:
            assert type(result.masks) is dict
            assert 0 not in result.masks.values()
            assert all(result.masks is not o.masks for o in operands)
    for z in (x - x, x.scale(0), a - a, a.scale(0), QSym.unit(0), CQSym.unit(0)):
        assert z.masks == {} and not z
    # cyclic_fundamental hands _make a Counter, which is copied into a dict.
    assert type(b.masks) is dict


# --- the output edge against the per-bit decode and json.dumps -------------


def _bit_elements(mask, n):
    """The elements of a degree-n mask, one set bit at a time."""
    elems = []
    while mask:
        top = mask.bit_length()  # bit top - 1 holds element n + 1 - top
        elems.append(n + 1 - top)
        mask ^= 1 << (top - 1)
    return elems


def _reference_json(basis, n, masks):
    rows = sorted((_bit_elements(m, n), c) for m, c in masks.items())
    payload = {"degree": n, "basis": basis, "terms": [{"set": E, "coeff": c} for E, c in rows]}
    return json.dumps(payload, sort_keys=True)


def _reference_repr(x):
    name = type(x).__name__
    if not x.masks:
        return f"{name}({x.degree}, 0)"
    rows = sorted((_bit_elements(m, x.degree), c) for m, c in x.masks.items())
    parts = [f"{c}*{x._symbol}{{{','.join(map(str, E))}}}" for E, c in rows]
    return f"{name}({x.degree}, {' + '.join(parts)})"


def _reference_terms(n, masks):
    return {frozenset(_bit_elements(m, n)): c for m, c in masks.items()}


def _coefficient(rng):
    """A small coefficient of either sign, or one above 2^64."""
    return rng.choice([1, -1, 2, -3, 7, 2**64 + rng.randrange(1, 10**6), -(2**70) - 1])


def _seeded_qsym(rng, n):
    """The unit at degree 0; above it the empty set, sparse terms at
    degree 17 and up and denser ones below."""
    if n == 0:
        return QSym.unit(_coefficient(rng))
    terms = {frozenset(): _coefficient(rng)}
    density = rng.choice([0.1, 0.5, 0.9]) if n >= 17 else 0.5
    for _ in range(rng.randrange(1, 6 if n >= 17 else 40)):
        E = frozenset(e for e in range(1, n) if rng.random() < density)
        terms[E] = _coefficient(rng)
    return QSym(n, terms)


def _seeded_cqsym(rng, n):
    if n == 0:
        return CQSym.unit(_coefficient(rng))
    out = CQSym.zero(n)
    for _ in range(rng.randrange(1, 6 if n >= 17 else 20)):
        E = [e for e in range(1, n + 1) if rng.random() < 0.4] or [n]
        out = out + cyclic_monomial(n, E).scale(_coefficient(rng))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_output_edge_matches_bit_decode_and_json_dumps(seed):
    rng = random.Random(seed)
    for n in range(25):
        x = _seeded_qsym(rng, n)
        assert x.to_json() == x.to_json("M") == _reference_json("M", n, x.masks)
        assert repr(x) == _reference_repr(x)
        assert dict(x.terms) == _reference_terms(n, x.masks)
        assert QSym.from_json(x.to_json()) == x
        # F rows hold 2^(n-1-|E|) supersets per term; keep those few.
        if n == 0 or sum(1 << (n - 1 - len(E)) for E in x.terms) <= 4096:
            fmasks = x._fundamental_masks()
            assert x.to_json("F") == _reference_json("F", n, fmasks)
            assert x.to_fundamental() == _reference_terms(n, fmasks)
            assert QSym.from_json(x.to_json("F")) == x
        y = _seeded_cqsym(rng, n)
        assert y.to_json() == _reference_json("Mcyc", n, y.masks)
        assert repr(y) == _reference_repr(y)
        assert dict(y.terms) == _reference_terms(n, y.masks)
        assert CQSym.from_json(y.to_json()) == y
        q = y.as_qsym()
        assert q.to_json("M") == _reference_json("M", n, q.masks)
        if n <= 12:
            assert q.to_json("F") == _reference_json("F", n, q._fundamental_masks())


def test_zero_elements_render_as_before():
    for x in (QSym.zero(0), QSym.zero(19), CQSym.zero(5)):
        assert x.to_json() == _reference_json(x._symbol, x.degree, x.masks)
        assert repr(x) == _reference_repr(x)


def test_rows_are_ranked_by_element_lists():
    for n in range(13):
        masks = range(1 << n)
        assert _ranked(masks, n) == sorted(masks, key=lambda m: _bit_elements(m, n))


def test_a_sparse_high_degree_element_renders_without_a_table():
    start = time.perf_counter()
    text = QSym(40, {frozenset({1, 7, 33}): 3}).to_json()
    assert time.perf_counter() - start < 0.1
    assert text == '{"basis": "M", "degree": 40, "terms": [{"coeff": 3, "set": [1, 7, 33]}]}'
    fundamental(18, []).to_json()
    _, _, hi, lo = setcomp._halves(18)
    assert len(hi) + len(lo) <= 2 * 2**9


# --- from_qsym's refusals ---------------------------------------------------


def _from_qsym_by_rebuild(a):
    """from_qsym as it was: read each class's coefficient off its first
    term, then expand the result back and compare it with a."""
    n = a.degree
    if n == 0:
        return CQSym.unit(a.masks.get(0, 0))
    coeffs = {}
    for key in {setcomp._canonical_mask(L | 1, n) for L in a.masks}:
        L0, mult0 = _class_expansion(key, n)[0]
        c0 = a.masks.get(L0, 0)
        if c0 % mult0 != 0:
            raise NotCyclicError(
                f"coefficient {c0} of M_{{{n},{sorted(setcomp._set(L0, n))}}} is not "
                f"divisible by its class multiplicity {mult0}"
            )
        coeffs[key] = c0 // mult0
    result = CQSym._make(n, coeffs)
    if result.as_qsym() != a:
        raise NotCyclicError("coefficients are inconsistent across a cyclic class")
    return result


INCONSISTENT = "^coefficients are inconsistent across a cyclic class$"


def test_from_qsym_refuses_an_indivisible_coefficient():
    # M_{4,{2}} has multiplicity 2 in Mcyc_{4,{1,3}}.
    with pytest.raises(
        NotCyclicError,
        match=re.escape("coefficient 3 of M_{4,[2]} is not divisible by its class multiplicity 2"),
    ):
        from_qsym(QSym(4, {frozenset({2}): 3}))


def test_from_qsym_refuses_a_class_inconsistent_across_its_terms():
    # Mcyc_{4,{1,2}} = M_{4,{1}} + M_{4,{3}}.
    assert cyclic_monomial(4, {1, 2}).as_qsym() == QSym(4, {frozenset({1}): 1, frozenset({3}): 1})
    with pytest.raises(NotCyclicError, match=INCONSISTENT):
        from_qsym(QSym(4, {frozenset({1}): 1, frozenset({3}): 2}))


def test_from_qsym_refuses_a_class_without_its_first_term():
    key = setcomp._mask({1, 2}, 4)
    (first, _), (other, _) = _class_expansion(key, 4)
    with pytest.raises(NotCyclicError, match=INCONSISTENT):
        from_qsym(QSym._make(4, {other: 1}))
    assert from_qsym(QSym._make(4, {first: 1, other: 1})) == cyclic_monomial(4, {1, 2})


def test_from_qsym_refuses_one_stray_monomial():
    x = kcyc({2, 5}, 7)
    with pytest.raises(NotCyclicError, match=INCONSISTENT):
        from_qsym(x.as_qsym() + monomial(7, {1, 3}))


@pytest.mark.parametrize("seed", range(3))
def test_from_qsym_agrees_with_rebuild_and_compare(seed):
    rng = random.Random(seed)

    def outcome(f, a):
        try:
            return f(a)
        except NotCyclicError as exc:
            return str(exc)

    for n in range(13):
        a = _seeded_cqsym(rng, n).as_qsym()
        assert outcome(from_qsym, a) == outcome(_from_qsym_by_rebuild, a)
        assert type(outcome(from_qsym, a)) is CQSym
        if a.masks:
            stray = a + QSym._make(n, {rng.choice(list(a.masks)): rng.choice([1, -1, 2])})
            assert outcome(from_qsym, stray) == outcome(_from_qsym_by_rebuild, stray)
        if n:
            mixed = a + QSym._make(n, {rng.randrange(1 << (n - 1)) << 1: rng.choice([1, 3])})
            assert outcome(from_qsym, mixed) == outcome(_from_qsym_by_rebuild, mixed)
