"""Words in the reduced powers P^a and their Adem normal forms.

Everything is graded the Chow way: P^a raises degree by a(p-1), a word
(a_1, ..., a_k) is admissible when a_j >= p * a_{j+1}, and the empty word
is the identity operation.  At p = 2 the operations written Sq^{2a}
elsewhere are the same as P^a here; the parser applies that identification
so a single code path serves every prime.

Only pure power words appear: on modules concentrated in even topological
degrees the Bockstein acts as zero, and the power-power Adem relation
never produces it.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .fp_linalg import binom_mod_p, check_prime

Word = tuple[int, ...]

IDENTITY: Word = ()


def word_degree(word: Word, p: int) -> int:
    """Chow degree (p-1) * sum of exponents; the identity has degree 0."""
    return (p - 1) * sum(word)


def is_admissible(word: Word, p: int) -> bool:
    return all(word[j] >= p * word[j + 1] for j in range(len(word) - 1))


def excess(word: Word, p: int) -> int:
    """a_1 - (p-1)(a_2 + ... + a_k) for an admissible word; identity -> 0."""
    if not word:
        return 0
    if not is_admissible(word, p):
        raise ValueError(f"excess is only defined for admissible words, got {word}")
    return word[0] - (p - 1) * sum(word[1:])


@lru_cache(maxsize=None)
def adem_pair_expansion(a: int, b: int, p: int) -> tuple[tuple[Word, int], ...]:
    """Expansion of the inadmissible product P^a P^b (a < pb) into admissibles.

    P^a P^b = sum_{k=0}^{floor(a/p)} (-1)^(a+k) C((p-1)(b-k)-1, a-pk) P^(a+b-k) P^k
    """
    if a >= p * b:
        raise ValueError(f"P^{a} P^{b} is already admissible at p={p}")
    terms: dict[Word, int] = {}
    for k in range(a // p + 1):
        c = binom_mod_p((p - 1) * (b - k) - 1, a - p * k, p)
        if c == 0:
            continue
        if (a + k) % 2:
            c = (-c) % p
        word: Word = (a + b - k, k) if k > 0 else (a + b - k,)
        terms[word] = (terms.get(word, 0) + c) % p
    return tuple(sorted((w, c) for w, c in terms.items() if c))


@lru_cache(maxsize=None)
def _reduce_word(word: Word, p: int) -> tuple[tuple[Word, int], ...]:
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a < p * b:
            acc: dict[Word, int] = {}
            for mid, c in adem_pair_expansion(a, b, p):
                stitched = word[:i] + mid + word[i + 2:]
                for w, c2 in _reduce_word(stitched, p):
                    v = (acc.get(w, 0) + c * c2) % p
                    if v:
                        acc[w] = v
                    elif w in acc:
                        del acc[w]
            return tuple(sorted(acc.items()))
    return ((word, 1),)


def reduce_word(word: Word, p: int) -> dict[Word, int]:
    """Admissible normal form of a single word, as word -> coefficient."""
    if any(a <= 0 for a in word):
        raise ValueError(f"word exponents must be positive, got {word}")
    return dict(_reduce_word(tuple(word), p))


def _term_sort_key(word: Word):
    # longest word first, then lexicographic: the canonical printing order
    return (-len(word), word)


class OperationExpression:
    """An F_p-linear combination of power words, homogeneous in Chow degree.

    Immutable by convention; `terms` maps words (not necessarily admissible)
    to nonzero scalars in 1..p-1.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Word, int]):
        self.p = check_prime(p)
        clean: dict[Word, int] = {}
        degree = None
        for word, c in terms.items():
            word = tuple(word)
            if any(a <= 0 for a in word):
                raise ValueError(f"word exponents must be positive: {word}")
            c %= p
            if c == 0:
                continue
            d = word_degree(word, p)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(
                    f"mixed degrees in expression: {d} and {degree}")
            clean[word] = c
        self.terms = clean

    @property
    def degree(self) -> int:
        for word in self.terms:
            return word_degree(word, self.p)
        return 0

    def is_admissible(self) -> bool:
        return all(is_admissible(w, self.p) for w in self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperationExpression)
                and self.p == other.p and self.terms == other.terms)

    def __hash__(self):
        return hash((self.p, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=_term_sort_key):
            c = self.terms[word]
            body = " ".join(f"P^{a}" for a in word) if word else "1"
            if word and c == 1:
                parts.append(body)
            else:
                parts.append(f"{c} {body}" if word else str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<OperationExpression p={self.p}: {self}>"


def adem_reduce(expr: OperationExpression) -> OperationExpression:
    """Admissible normal form; equal to `expr` in the reduced-power algebra."""
    acc: dict[Word, int] = {}
    for word, c in expr.terms.items():
        for w, c2 in _reduce_word(word, expr.p):
            acc[w] = (acc.get(w, 0) + c * c2) % expr.p
    return OperationExpression(expr.p, acc)


class OperationSyntaxError(ValueError):
    """Parse failure; `pos` is the 0-based offset into the input string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(Sq\^)|(P\^)|(\d+)|(\*)|(\+)|(\S))")


def _tokenize(s: str):
    tokens = []
    i = 0
    while i < len(s):
        m = _TOKEN.match(s, i)
        if not m:
            break
        sq, pw, num, star, plus, bad = m.groups()
        pos = m.start(m.lastindex)
        if bad is not None:
            raise OperationSyntaxError(f"unexpected character {bad!r}", pos)
        if sq:
            tokens.append(("SQ", None, pos))
        elif pw:
            tokens.append(("P", None, pos))
        elif num:
            tokens.append(("INT", int(num), pos))
        elif star:
            tokens.append(("STAR", None, pos))
        else:
            tokens.append(("PLUS", None, pos))
        i = m.end()
    return tokens


def parse_operation(s: str, p: int) -> OperationExpression:
    """Parse `expr := term ('+' term)*`, `term := [int '*']? factor+`,
    `factor := 'P^' int | 'Sq^' int` (Sq only at p = 2, even superscript).

    The '*' after a coefficient is optional on input so that printed normal
    forms (e.g. "2 P^2") round-trip.
    """
    p = check_prime(p)
    tokens = _tokenize(s)
    if not tokens:
        raise OperationSyntaxError("empty expression", 0)
    terms: dict[Word, int] = {}
    degree = None
    i = 0
    while True:
        coeff = 1
        if i < len(tokens) and tokens[i][0] == "INT":
            coeff = tokens[i][1]
            i += 1
            if i < len(tokens) and tokens[i][0] == "STAR":
                i += 1
        word: list[int] = []
        while i < len(tokens) and tokens[i][0] in ("P", "SQ"):
            kind, _, pos = tokens[i]
            i += 1
            if i >= len(tokens) or tokens[i][0] != "INT":
                raise OperationSyntaxError("expected an integer exponent", pos)
            exp = tokens[i][1]
            i += 1
            if kind == "SQ":
                if p != 2:
                    raise OperationSyntaxError(
                        f"Sq notation is only accepted at p = 2, not p = {p}", pos)
                if exp % 2:
                    raise OperationSyntaxError(
                        f"Sq^{exp} has odd degree; only even squares act here", pos)
                exp //= 2
            if exp < 0:
                raise OperationSyntaxError("negative exponent", pos)
            if exp > 0:  # P^0 is the identity factor and contributes nothing
                word.append(exp)
        if not word and coeff == 1 and (i == 0 or tokens[i - 1][0] not in ("INT", "STAR")):
            pos = tokens[i][2] if i < len(tokens) else len(s)
            raise OperationSyntaxError("expected a factor like P^2", pos)
        w = tuple(word)
        d = word_degree(w, p)
        if degree is None:
            degree = d
        elif d != degree:
            pos = tokens[i - 1][2] if i else 0
            raise OperationSyntaxError(
                f"mixed degrees in sum: {d} and {degree}", pos)
        terms[w] = (terms.get(w, 0) + coeff) % p
        if i == len(tokens):
            break
        if tokens[i][0] != "PLUS":
            raise OperationSyntaxError("expected '+' between terms", tokens[i][2])
        i += 1
        if i == len(tokens):
            raise OperationSyntaxError("dangling '+'", len(s))
    return OperationExpression(p, terms)
