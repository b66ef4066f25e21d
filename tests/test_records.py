"""Each group record's encoding against its element class: the record's
`eval`, `decode`, `mul`, `inv` and `show` on plain tuples agree with the
class's `evaluate`, `from_json`, `*`, `inverse` and `str`."""

import copy
import json
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given
from strategies import words

from palwidth import baumslag, heisenberg, wreath
from palwidth.baumslag import BSElement
from palwidth.heisenberg import HeisElement
from palwidth.words import AB, AT, EMPTY
from palwidth.wreath import WreathElement


def check_record(ev, encode, evaluate, identity, g, h, w):
    """The record `ev` against an element class on its elements g, h and
    the word w; `encode` maps an element to its encoding."""
    eg, eh = encode(g), encode(h)
    got = {
        "eval": (ev.eval(w), encode(evaluate(w))),
        "identity": (ev.eval(EMPTY), encode(identity)),
        "decode": (ev.decode(json.loads(json.dumps(g.to_json()))), eg),
        "mul": (ev.mul(eg, eh), encode(g * h)),
        "inv": (ev.inv(eg), encode(g.inverse())),
        "mul-inv": (ev.mul(eg, ev.inv(eg)), encode(identity)),
    }
    for name, (enc, expected) in got.items():
        assert enc == expected, name
        assert type(enc) is tuple and all(type(v) is int for v in enc), name
    assert ev.show(eg) == str(g) == json.dumps(g.to_json(), sort_keys=True)


# one to three digits of both signs, where the string order of the
# literal's support keys ("-10" < "-2" < "10" < "2") is not the numeric one
lamps = st.lists(st.tuples(st.integers(-999, 999), st.integers(-30, 30)), max_size=6)
wreath_elements = st.builds(WreathElement.of, lamps, st.integers(-999, 999))


@given(wreath_elements, wreath_elements, words(AB))
def test_wreath_record(g, h, w):
    check_record(wreath.evaluator(), tuple, wreath.evaluate, WreathElement(), g, h, w)
    assert WreathElement.from_flat(tuple(g)) == g
    # the merge against a dict sum of the lamps: (F, s)(G, t) = (F + G
    # moved by -s, s + t)
    moved = [(i - g.shift, e) for i, e in h.tail]
    product = WreathElement.of(g.tail + tuple(moved), g.shift + h.shift)
    assert wreath.mul(tuple(g), tuple(h)) == tuple(product)


heis_elements = st.builds(HeisElement, *[st.integers(-(10**6), 10**6)] * 3)


@given(heis_elements, heis_elements, words(AB))
def test_heis_record(g, h, w):
    check_record(heisenberg.evaluator(), tuple, heisenberg.evaluate, HeisElement(), g, h, w)


@st.composite
def bs_cases(draw):
    n = draw(st.sampled_from([2, 3, -2, 5, -7]))
    elements = st.builds(
        BSElement, st.integers(-999, 999), st.integers(0, 6), st.integers(-6, 6), st.just(n)
    )
    return n, draw(elements), draw(elements), draw(words(AT, 10))


@given(bs_cases())
def test_bs_record(case):
    n, g, h, w = case
    check_record(
        baumslag.evaluator(n), tuple, lambda u: baumslag.evaluate(u, n),
        BSElement.identity(n), g, h, w,
    )


@pytest.mark.parametrize(
    "element",
    [
        WreathElement.of([(-3, 2), (5, -1)], 7),
        WreathElement(),
        HeisElement(1, -2, 3),
        BSElement(3, 2, -1, 2),
    ],
    ids=["wreath", "wreath-identity", "heis", "bs"],
)
def test_copy_and_pickle_round_trips(element):
    copies = [copy.copy(element), copy.deepcopy(element)]
    copies += [pickle.loads(pickle.dumps(element, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(element)
        assert other == element and str(other) == str(element)
