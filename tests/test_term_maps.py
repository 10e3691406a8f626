"""The contract shared by the three zero-free term maps.

``LaurentPoly`` (the height polynomials), ``WeylElement`` (the basis
U^j D^i) and ``DownUpElement`` (the normal monomials U^a (DU)^b D^c) each
store an element as an immutable map from basis keys to nonzero
coefficients, so ``==`` on the map is equality of the elements.
"""

import pickle
from fractions import Fraction

import pytest

from weylwords import DownUpElement, LaurentPoly, WeylElement

# (type, terms with a zero, the same terms without it, repr, key to cancel)
CASES = [
    (LaurentPoly, {-1: 1, 0: 0, 2: 5}, {-1: 1, 2: 5}, "LaurentPoly(1*z^-1 + 5*z^2)", 3),
    (
        WeylElement,
        {(0, 0): 2, (1, 0): 0, (1, 1): 4, (2, 2): 1},
        {(0, 0): 2, (1, 1): 4, (2, 2): 1},
        "WeylElement(1*U^2*D^2 + 4*U^1*D^1 + 2*U^0*D^0)",
        (3, 1),
    ),
    (
        DownUpElement,
        {"UDD": Fraction(1, 2), "DU": Fraction(0)},
        {"UDD": Fraction(1, 2)},
        "DownUpElement(1/2*UDD)",
        "UU",
    ),
]


@pytest.mark.parametrize(
    "cls, with_zero, terms, shown, key", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_term_map_contract(cls, with_zero, terms, shown, key):
    x = cls(with_zero)
    assert x.terms == terms
    same = cls(dict(reversed(list(terms.items()))))
    assert x == same and hash(x) == hash(same)
    assert x and not cls({})

    pairs = list(terms.items()) + [(key, 1), (key, -1)]
    assert cls(pairs) == x and key not in cls(pairs).terms

    copy = x.terms
    copy[key] = 7
    assert x.terms == terms

    assert repr(x) == shown
    assert repr(cls({})) == f"{cls.__name__}(0)"

    for other_cls, other_with_zero, *_ in CASES:
        if other_cls is not cls:
            assert cls({}) != other_cls({})
            assert x != other_cls(other_with_zero)
    assert x != terms

    for fresh in (cls(terms), x):  # before and after the hash is cached
        back = pickle.loads(pickle.dumps(fresh))
        assert type(back) is cls and back == x and hash(back) == hash(x)
    assert pickle.dumps(cls(terms)) == pickle.dumps(x)  # the cached hash stays behind

    assert not hasattr(x, "__dict__")
