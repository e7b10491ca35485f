"""The group Sp_M of 2x2 determinant-one matrices over Z_M and its generator words.

Sp_M is generated by the unit triangular matrices h+ = [[1,1],[0,1]] and
h- = [[1,0],[1,1]], both of order M. Every element factors into a short word
in powers of h+ and h-; the factorization is driven by the Euclidean
algorithm on the second column and closed through the row swap
h_t = h+ h-^(M-1) h+ = [[0,1],[M-1,0]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .modring import BothZero, ModulusMismatch, _check_modulus, euclid_trace

ENUMERATION_BOUND = 12
# Largest working set a bounded computation may allocate; check_bytes is the
# one place that reads it.
SYSTEM_BYTES_BOUND = 256 * 2**20


class NotSymplectic(ValueError):
    """The matrix does not have determinant 1 in its residue ring."""


class DecompositionFailed(RuntimeError):
    """The Euclidean method could not produce a verified generator word."""


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


@dataclass(frozen=True)
class SympMat:
    """Element of Sp_M: entries are canonical representatives, det = 1 (mod M)."""

    a: int
    b: int
    c: int
    d: int
    modulus: int

    def __post_init__(self):
        _check_modulus(self.modulus)
        m = self.modulus
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, int(getattr(self, name)) % m)
        if (self.a * self.d - self.b * self.c) % m != 1:
            raise NotSymplectic(
                f"det {(self.a * self.d - self.b * self.c) % m} != 1 "
                f"for {(self.a, self.b, self.c, self.d)} mod {m}"
            )

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
        return multiply(self, other)

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


def multiply(s1: SympMat, s2: SympMat) -> SympMat:
    """Matrix product with entrywise reduction mod M."""
    if s1.modulus != s2.modulus:
        raise ModulusMismatch(f"moduli differ: {s1.modulus} vs {s2.modulus}")
    return SympMat(
        s1.a * s2.a + s1.b * s2.c,
        s1.a * s2.b + s1.b * s2.d,
        s1.c * s2.a + s1.d * s2.c,
        s1.c * s2.b + s1.d * s2.d,
        s1.modulus,
    )


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


@dataclass(frozen=True)
class GenWord:
    """An ordered product of generator powers, evaluated left to right.

    Exponents are canonical in {0, ..., M-1}; zero-exponent factors are
    dropped and adjacent factors with the same sign are merged, so stored
    words always alternate sign.
    """

    factors: tuple[tuple[str, int], ...]
    modulus: int

    def __post_init__(self):
        _check_modulus(self.modulus)
        stack: list[tuple[str, int]] = []
        for sign, exponent in self.factors:
            if sign not in ("+", "-"):
                raise ValueError(f"sign must be '+' or '-', got {sign!r}")
            exponent = int(exponent) % self.modulus
            if exponent == 0:
                continue
            if stack and stack[-1][0] == sign:
                merged = (stack[-1][1] + exponent) % self.modulus
                stack.pop()
                if merged:
                    stack.append((sign, merged))
            else:
                stack.append((sign, exponent))
        object.__setattr__(self, "factors", tuple(stack))

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "e"
        return " ".join(f"h{sign}^{exp}" for sign, exp in self.factors)

    def evaluate(self) -> SympMat:
        result = SympMat.identity(self.modulus)
        for sign, exponent in self.factors:
            result = result @ generator_power(sign, exponent, self.modulus)
        return result


def random_element(modulus: int, rng) -> SympMat:
    """The product of six random generator powers; ``rng`` is any generator
    with a numpy-style ``integers`` method."""
    factors = tuple(
        ("+" if rng.integers(2) else "-", int(rng.integers(1, modulus)))
        for _ in range(6)
    )
    return GenWord(factors, modulus).evaluate()


def decompose(s: SympMat, method: str = "euclid") -> GenWord:
    """Factor ``s`` into a generator word with word.evaluate() == s exactly.

    The Euclidean method runs the Euclidean algorithm on the canonical
    representatives of the second column (b, d). Each quotient k dictates a
    left multiplication by h+^(-k) or h-^(-k), alternating, which replays
    the remainder chain inside the matrix; the two chain parities that end
    with the bottom entry zeroed instead of the top get one extra swap by
    h_t. The result is lower triangular, [[alpha, 0], [gamma, beta]] with
    alpha * beta = 1 (mod M), and the closing identity

        h-^(-beta - beta*gamma) (H s) h+^beta h-^(-alpha) = h_t

    is solved for ``s`` itself. The word is re-evaluated before returning
    and DecompositionFailed is raised if it does not reproduce ``s``.

    ``method`` is "euclid" or "bfs" (the bounded shortest-word oracle,
    see bfs_decompose).
    """
    if method == "euclid":
        return _euclid_word(s)
    if method == "bfs":
        return bfs_decompose(s)
    raise ValueError(f"unknown method {method!r}")


def _euclid_word(s: SympMat) -> GenWord:
    m = s.modulus
    if s.is_identity:
        return GenWord((), m)
    if s.a == 1 and s.d == 1 and s.c == 0:
        return GenWord((("+", s.b),), m)
    if s.a == 1 and s.d == 1 and s.b == 0:
        return GenWord((("-", s.c),), m)
    if s == h_t(m):
        return GenWord((("+", 1), ("-", m - 1), ("+", 1)), m)

    # Reduce s to lower triangular form by left multiplications, recording
    # the factors in application order (first applied first).
    applied: list[tuple[str, int]] = []
    cur = s
    if cur.b == 0:
        pass
    elif cur.d == 0:
        cur = h_t(m) @ cur
        applied.append(("t", 1))
    else:
        try:
            trace = euclid_trace(cur.b, cur.d)
        except BothZero as exc:  # unreachable for det-1 input
            raise DecompositionFailed(str(exc)) from exc
        sign = "+" if cur.b >= cur.d else "-"
        for k in trace.quotients:
            cur = generator_power(sign, -k, m) @ cur
            applied.append((sign, -k))
            sign = "-" if sign == "+" else "+"
        if cur.b != 0:
            cur = h_t(m) @ cur
            applied.append(("t", 1))
    if cur.b != 0:
        raise DecompositionFailed(f"reduction left top-right entry {cur.b} != 0")
    alpha, gamma, beta = cur.a, cur.c, cur.d
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
    factors += [("+", 1), ("-", -1), ("+", 1)]
    factors.append(("-", alpha))
    factors.append(("+", -beta))
    word = GenWord(tuple(factors), m)
    if word.evaluate() != s:
        raise DecompositionFailed("factor word does not reproduce the input")
    return word


@lru_cache(maxsize=None)
def _word_table(modulus: int) -> dict[SympMat, GenWord]:
    """Breadth-first table of shortest words (in factor count) for all of Sp_M."""
    identity = SympMat.identity(modulus)
    steps = [("+", e) for e in range(1, modulus)] + [
        ("-", e) for e in range(1, modulus)
    ]
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
    elements = []
    rng = range(modulus)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if (a * d - b * c) % modulus == 1:
                        elements.append(SympMat(a, b, c, d, modulus))
    return elements
