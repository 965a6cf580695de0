import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowops.powers import (OperationExpression, OperationSyntaxError,
                            adem_pair_expansion, adem_reduce, excess,
                            is_admissible, parse_operation, reduce_word,
                            word_degree)


def expr(word, p):
    return OperationExpression(p, {word: 1})


def test_degree_examples():
    assert word_degree((1,), 2) == 1
    assert word_degree((2, 1), 3) == 6
    assert word_degree((), 7) == 0


def test_excess_examples():
    assert excess((2, 1), 2) == 1
    assert excess((3, 1), 2) == 2
    for p in (2, 3, 5):
        assert excess((1,), p) == 1
    assert excess((), 3) == 0
    with pytest.raises(ValueError):
        excess((1, 1), 2)


def test_adem_reduce_spec_examples():
    assert not adem_reduce(expr((1, 1), 2)).terms
    assert adem_reduce(expr((1, 2), 2)).terms == {(3,): 1}
    assert adem_reduce(expr((1, 1), 3)).terms == {(2,): 2}
    assert adem_reduce(expr((3, 1), 2)).terms == {(3, 1): 1}


def test_reduce_results_admissible_and_degree_preserving():
    for p in (2, 3, 5):
        for word in [(1, 1, 1), (2, 3), (1, 2, 3), (4, 4), (2, 2, 2)]:
            d = word_degree(word, p)
            out = reduce_word(word, p)
            for w, c in out.items():
                assert is_admissible(w, p)
                assert word_degree(w, p) == d
                assert 0 < c < p


def test_idempotence():
    for p in (2, 3):
        e = expr((2, 2, 1), p)
        once = adem_reduce(e)
        assert adem_reduce(once) == once


def _reduce_at(word, i, p):
    """One rewrite at position i (must be inadmissible there)."""
    out = {}
    for mid, c in adem_pair_expansion(word[i], word[i + 1], p):
        w = word[:i] + mid + word[i + 2:]
        out[w] = (out.get(w, 0) + c) % p
    return out


def _full_reduce_lincomb(terms, p):
    acc = {}
    for w, c in terms.items():
        for w2, c2 in reduce_word(w, p).items():
            acc[w2] = (acc.get(w2, 0) + c * c2) % p
    return {w: c for w, c in acc.items() if c}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(1, 6), min_size=2, max_size=4))
def test_confluence_any_rewrite_position(p, word):
    word = tuple(word)
    spots = [i for i in range(len(word) - 1) if word[i] < p * word[i + 1]]
    if not spots:
        return
    normal = reduce_word(word, p)
    for i in spots:
        rewritten = _reduce_at(word, i, p)
        assert _full_reduce_lincomb(rewritten, p) == {
            w: c for w, c in normal.items() if c}


def test_adem_pair_output_admissible():
    for p in (2, 3, 5):
        for b in range(1, 6):
            for a in range(1, p * b):
                for w, c in adem_pair_expansion(a, b, p):
                    assert is_admissible(w, p), (p, a, b, w)
                    assert word_degree(w, p) == (p - 1) * (a + b)


def test_parse_spec_examples():
    e = parse_operation("P^2 P^1", 5)
    assert e.terms == {(2, 1): 1}
    assert parse_operation("Sq^4", 2).terms == {(2,): 1}
    with pytest.raises(OperationSyntaxError):
        parse_operation("P^1 + P^2", 2)
    with pytest.raises(OperationSyntaxError):
        parse_operation("Sq^3", 2)
    with pytest.raises(OperationSyntaxError):
        parse_operation("Sq^4", 3)
    with pytest.raises(OperationSyntaxError):
        parse_operation("", 2)
    with pytest.raises(OperationSyntaxError):
        parse_operation("P^1 +", 2)
    with pytest.raises(OperationSyntaxError):
        parse_operation("Q^1", 2)


def test_parse_error_positions():
    try:
        parse_operation("P^1 P^1 + P^2 P^2 P^2", 2)
    except OperationSyntaxError as exc:
        assert exc.pos > 0
    else:  # same degrees would be fine; force a real mismatch
        with pytest.raises(OperationSyntaxError) as ei:
            parse_operation("P^1 + P^3", 2)
        assert ei.value.pos == 6


def test_parse_coefficients_and_roundtrip():
    e = parse_operation("2 * P^2 + P^2", 3)
    assert e.terms == {(2,): 0} or e.terms == {}  # 2 + 1 = 0 mod 3
    e = parse_operation("2 * P^3 + P^2 P^1", 5)
    printed = str(e)
    assert parse_operation(printed, 5) == e


@st.composite
def homogeneous_expressions(draw):
    """Expressions of one degree: every word a composition of the same
    total, the empty word (the unit) when that total is 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    total = draw(st.integers(0, 6))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.sets(st.integers(1, total - 1))) if total > 1
                      else set())
        bounds = [0, *cuts, total]
        word = tuple(b - a for a, b in zip(bounds, bounds[1:]) if b > a)
        terms[word] = draw(st.integers(0, p - 1))
    return OperationExpression(p, terms)


@settings(max_examples=200)
@given(homogeneous_expressions())
def test_printed_expressions_parse_back(e):
    assert parse_operation(str(e), e.p) == e


def test_canonical_printing_order():
    e = OperationExpression(2, {(4,): 1, (3, 1): 1})
    assert str(e) == "P^3 P^1 + P^4"
    assert str(OperationExpression(3, {(): 2})) == "2"
    assert str(OperationExpression(3, {})) == "0"


def test_mixed_degree_expression_rejected():
    with pytest.raises(ValueError):
        OperationExpression(2, {(1,): 1, (2,): 1})
