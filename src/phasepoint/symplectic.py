"""The group Sp_M of 2x2 determinant-one matrices over Z_M and its generator words.

Sp_M is generated by the unit triangular matrices h+ = [[1,1],[0,1]] and
h- = [[1,0],[1,1]], both of order M. Every element factors into a short word
in powers of h+ and h-. The paper's factorization is driven by the Euclidean
algorithm on the second column and closed through the row swap
h_t = h+ h-^(M-1) h+ = [[0,1],[M-1,0]]; a closed form gives every element a
word of at most four factors.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index

from .modring import ModulusMismatch, _check_modulus, _Frozen, euclid_trace

ENUMERATION_BOUND = 12
# Largest working set a bounded computation may allocate; check_bytes is the
# one place that reads it.
SYSTEM_BYTES_BOUND = 256 * 2**20


class NotSymplectic(ValueError):
    """The matrix does not have determinant 1 in its residue ring."""


class DecompositionFailed(RuntimeError):
    """A decomposition method could not produce a verified generator word."""


class BoundExceeded(ValueError):
    """An input is beyond the bound of a size-limited computation: group
    enumeration and BFS (ENUMERATION_BOUND), or a working set above
    SYSTEM_BYTES_BOUND (check_bytes). Raised before the work is allocated."""


def check_bytes(what: str, nbytes: int) -> None:
    """Refuse ``what`` before it starts when it needs more than
    SYSTEM_BYTES_BOUND bytes. Callers keep their own byte formulas."""
    if nbytes > SYSTEM_BYTES_BOUND:
        raise BoundExceeded(
            f"{what} needs {nbytes} bytes, above the bound of {SYSTEM_BYTES_BOUND}"
        )


class SympMat(_Frozen):
    """Element of Sp_M: entries are canonical representatives, det = 1 (mod M).

    Entries are read with operator.index, so ints and numpy integer scalars
    pass and a float or a string raises TypeError instead of truncating."""

    __slots__ = __match_args__ = ("a", "b", "c", "d", "modulus")

    def __init__(self, a: int, b: int, c: int, d: int, modulus: int):
        _check_modulus(modulus)
        m = modulus
        a, b, c, d = index(a) % m, index(b) % m, index(c) % m, index(d) % m
        if (a * d - b * c) % m != 1:
            raise NotSymplectic(f"det {(a * d - b * c) % m} != 1 for {(a, b, c, d)} mod {m}")
        self._init(a, b, c, d, m)

    @classmethod
    def identity(cls, modulus: int) -> "SympMat":
        return cls(1, 0, 0, 1, modulus)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def is_identity(self) -> bool:
        return self.entries == (1, 0, 0, 1)

    def __matmul__(self, other: "SympMat") -> "SympMat":
        """Matrix product with entrywise reduction mod M."""
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"moduli differ: {self.modulus} vs {other.modulus}")
        return SympMat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.modulus,
        )

    def inverse(self) -> "SympMat":
        return SympMat(self.d, -self.b, -self.c, self.a, self.modulus)

    def __pow__(self, n: int) -> "SympMat":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = SympMat.identity(self.modulus)
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result


def apply_point(s: SympMat, point: tuple[int, int]) -> tuple[int, int]:
    """Linear action of a symplectic element on a lattice point, mod s.modulus:
    (a x + b y, c x + d y) for point (x, y), ints or integer arrays."""
    x, y = point
    return ((s.a * x + s.b * y) % s.modulus, (s.c * x + s.d * y) % s.modulus)


def generator(sign: str, modulus: int) -> SympMat:
    """The generator h+ (sign '+') or h- (sign '-') over Z_M."""
    return generator_power(sign, 1, modulus)


def generator_power(sign: str, exponent: int, modulus: int) -> SympMat:
    # h+^n puts n in the top-right corner, h-^n in the bottom-left.
    n = exponent % modulus
    if sign == "+":
        return SympMat(1, n, 0, 1, modulus)
    if sign == "-":
        return SympMat(1, 0, n, 1, modulus)
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def h_t(modulus: int) -> SympMat:
    """The row swap [[0,1],[M-1,0]], equal to the word h+ h-^(M-1) h+."""
    return SympMat(0, 1, modulus - 1, 0, modulus)


class GenWord(_Frozen):
    """An ordered product of generator powers, evaluated left to right.

    Exponents are canonical in {0, ..., M-1}, read with operator.index as
    SympMat's entries are; zero-exponent factors are dropped and adjacent
    factors with the same sign are merged, so stored words always alternate
    sign.
    """

    __slots__ = __match_args__ = ("factors", "modulus")

    def __init__(self, factors: tuple[tuple[str, int], ...], modulus: int):
        _check_modulus(modulus)
        stack: list[tuple[str, int]] = []
        for sign, exponent in factors:
            if sign not in ("+", "-"):
                raise ValueError(f"sign must be '+' or '-', got {sign!r}")
            exponent = index(exponent) % modulus
            if stack and stack[-1][0] == sign:
                exponent = (stack.pop()[1] + exponent) % modulus
            if exponent:
                stack.append((sign, exponent))
        self._init(tuple(stack), modulus)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "e"
        return " ".join(f"h{sign}^{exp}" for sign, exp in self.factors)

    def evaluate(self) -> SympMat:
        # h+^k adds k times column one to column two, h-^k k times column two
        # to column one; one SympMat (one determinant check) at the end
        m = self.modulus
        a, b, c, d = 1, 0, 0, 1
        for sign, k in self.factors:
            if sign == "+":
                b, d = (b + a * k) % m, (d + c * k) % m
            else:
                a, c = (a + b * k) % m, (c + d * k) % m
        return SympMat(a, b, c, d, m)


def random_element(modulus: int, rng) -> SympMat:
    """The product of six random generator powers, their signs and exponents
    drawn in one call each to ``rng``'s numpy-style ``integers`` method."""
    signs, exponents = rng.integers(2, size=6), rng.integers(1, modulus, size=6)
    factors = tuple(("+" if sign else "-", int(k)) for sign, k in zip(signs, exponents))
    return GenWord(factors, modulus).evaluate()


def decompose(s: SympMat) -> GenWord:
    """Factor ``s`` into a generator word with word.evaluate() == s exactly.

    It runs the Euclidean algorithm on the canonical representatives of the
    second column (b, d). Each quotient k dictates a left multiplication by
    h+^(-k) or h-^(-k), alternating, which replays the remainder chain
    inside the matrix; the two chain parities that end with the bottom entry
    zeroed instead of the top get one extra swap by h_t. The result is lower
    triangular, [[alpha, 0], [gamma, beta]] with alpha * beta = 1 (mod M),
    and the closing identity

        h-^(-beta - beta*gamma) (H s) h+^beta h-^(-alpha) = h_t

    is solved for ``s`` itself. The word is re-evaluated before returning
    and DecompositionFailed is raised if it does not reproduce ``s``.
    bfs_decompose is the bounded shortest-word oracle.
    """
    m = s.modulus
    # the identity included, as h+^0
    if s.a == 1 and s.d == 1 and s.c == 0:
        return GenWord((("+", s.b),), m)
    if s.a == 1 and s.d == 1 and s.b == 0:
        return GenWord((("-", s.c),), m)
    if s.entries == (0, 1, m - 1, 0):  # h_t
        return GenWord((("+", 1), ("-", m - 1), ("+", 1)), m)

    # Reduce s to lower triangular form by left multiplications, recording
    # the factors in application order (first applied first). Each is a row
    # operation on the entries, carried as integers mod M: h+^(-k) takes k
    # times the bottom row from the top one, h-^(-k) the top from the bottom.
    applied: list[tuple[str, int]] = []
    a, b, c, d = s.entries
    if b != 0 and d != 0:
        sign = "+" if b >= d else "-"
        for k in euclid_trace(b, d).quotients:
            if sign == "+":
                a, b = (a - k * c) % m, (b - k * d) % m
            else:
                c, d = (c - k * a) % m, (d - k * b) % m
            applied.append((sign, -k))
            sign = "-" if sign == "+" else "+"
    # a chain (or a zero d) that leaves the top entry nonzero ends with h_t,
    # which moves the bottom row up and the negated top row down
    if b != 0:
        a, b, c, d = c, d, -a % m, -b % m
        applied.append(("t", 1))
    if b != 0:
        raise DecompositionFailed(f"reduction left top-right entry {b} != 0")
    alpha, gamma, beta = a, c, d
    if (alpha * beta) % m != 1:
        raise DecompositionFailed(
            f"triangular form has non-unit diagonal ({alpha}, {beta}) mod {m}"
        )

    # s = H^(-1) h-^(beta + beta*gamma) h_t h-^alpha h+^(-beta), where H is
    # the product of the applied factors. Inverting H keeps application
    # order while negating exponents; h_t inverts to h+^(-1) h- h+^(-1).
    factors: list[tuple[str, int]] = []
    for sign, exponent in applied:
        if sign == "t":
            factors += [("+", -1), ("-", 1), ("+", -1)]
        else:
            factors.append((sign, -exponent))
    factors.append(("-", beta + beta * gamma))
    factors += [("+", 1), ("-", -1), ("+", 1), ("-", alpha), ("+", -beta)]
    word = GenWord(tuple(factors), m)
    if word.evaluate() != s:
        raise DecompositionFailed("factor word does not reproduce the input")
    return word


def four_factor_word(s: SympMat) -> GenWord:
    """The word h-^x h+^b' h-^z h+^(-t) for ``s``, at most four factors.

    t is the smallest t >= 0 that makes b' = a t + b a unit mod M; one
    exists because the row (a, b) is unimodular, so by the CRT some t avoids
    every prime of M. With d' = c t + d, s h+^t = [[a, b'], [c, d']], and

        h-^x h+^b' h-^z = [[1 + b' z, b'], [x + (x b' + 1) z, x b' + 1]]

    matches it for z = (a - 1)/b' and x = (d' - 1)/b'; the bottom-left
    entry x + d' z = (a d' - 1)/b' is c because a d' - b' c = 1. The word is
    re-evaluated before returning, as in decompose.
    """
    m = s.modulus
    for t in range(m):
        b1 = (s.a * t + s.b) % m
        if math.gcd(b1, m) == 1:
            break
    else:  # unreachable for det-1 input
        raise DecompositionFailed(f"no t makes a*t + b a unit mod {m} for {s}")
    inverse = pow(b1, -1, m)
    x = (s.c * t + s.d - 1) * inverse
    z = (s.a - 1) * inverse
    word = GenWord((("-", x), ("+", b1), ("-", z), ("+", -t)), m)
    if word.evaluate() != s:
        raise DecompositionFailed("four-factor word does not reproduce the input")
    return word


@lru_cache(maxsize=ENUMERATION_BOUND)
def _word_table(modulus: int) -> dict[SympMat, GenWord]:
    """Breadth-first table of shortest words (in factor count) for all of Sp_M,
    M <= ENUMERATION_BOUND: one slot per modulus, so none is evicted."""
    identity = SympMat.identity(modulus)
    steps = [(sign, e) for sign in "+-" for e in range(1, modulus)]
    step_mats = {step: generator_power(step[0], step[1], modulus) for step in steps}
    table: dict[SympMat, tuple[tuple[str, int], ...]] = {identity: ()}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for current in frontier:
            for step in steps:
                reached = current @ step_mats[step]
                if reached not in table:
                    table[reached] = table[current] + (step,)
                    next_frontier.append(reached)
        frontier = next_frontier
    return {mat: GenWord(word, modulus) for mat, word in table.items()}


def bfs_decompose(s: SympMat) -> GenWord:
    """Shortest generator word for ``s``, counting aggregated powers as one factor.

    The search tabulates all of Sp_M, so it is bounded like enumeration:
    raises BoundExceeded above ENUMERATION_BOUND.
    """
    if s.modulus > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"modulus {s.modulus} exceeds search bound {ENUMERATION_BOUND}"
        )
    word = _word_table(s.modulus).get(s)
    if word is None:  # unreachable: the generators span the whole group
        raise DecompositionFailed(f"{s} not reachable from the generators")
    return word


def group_order(modulus: int) -> int:
    """|Sp_M| = M^3 * prod over primes p | M of (1 - p^-2)."""
    _check_modulus(modulus)
    order = modulus**3
    m, p = modulus, 2
    while p * p <= m:
        if m % p == 0:
            order = order * (p * p - 1) // (p * p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        order = order * (m * m - 1) // (m * m)
    return order


def enumerate_group(modulus: int) -> list[SympMat]:
    """All elements of Sp_M in lexicographic entry order, for M <= ENUMERATION_BOUND."""
    _check_modulus(modulus)
    if modulus > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"modulus {modulus} exceeds enumeration bound {ENUMERATION_BOUND}"
        )
    return [
        SympMat(a, b, c, d, modulus)
        for a, b, c, d in itertools.product(range(modulus), repeat=4)
        if (a * d - b * c) % modulus == 1
    ]
