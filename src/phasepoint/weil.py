"""U(S) in closed form: exact quadratic Gauss sums along a generator word.

Every U(S) is a chirp on a lattice coset. With L = 8R (R = N on odd
lattices, 2N on even ones) and zeta = exp(2 pi i / L), row i of U(S) is
supported on the columns k = kappa + delta i + g m (mod N), m in Z_(N/g),
and there

    U(S)[i, k] = sqrt(g/N) zeta^(P(i, m) + eighth L/8),

with P an integer quadratic in (i, m) mod L and g = gcd(b, N) for the
element's upper-right entry b (the Weil representation's chirps, Appleby,
J. Math. Phys. 46, 052107, 2005). A Descriptor holds those integers.

compose builds one along any generator word by exact right multiplication,
from the identity (g = N, kappa = 0, delta = 1, P = 0):
- h-^k adds the column chirp k e(c) to P, with c = kappa + delta i + g m
  substituted (4k(c^2 + Nc) in zeta units on odd lattices, 8k c^2 on even
  ones);
- h+^k is the inverse DFT, the chirp -k e(f), the eighth root lambda_0^k
  and the DFT, as metaplectic._u_stack applies it in floats. A DFT step sums
  zeta^(A m^2 + B m) over m in Z_(N/g), with B affine in the row i and the
  new column f: that is half of the quadratic Gauss sum S(2A/q, 2B/q; 2N/g),
  q = L g/N, whose closed form (_sum_shape) is a support condition on
  (i, f), which gives the new coset, a magnitude, an eighth root of unity
  and a quadratic phase.
Along four_factor_word(s) the exponents equal the float build's rounded
table bit for bit. Every step is a few gcds, modular inverses and Jacobi
symbols, so a descriptor costs O(log M) integer work at any modulus.

certify checks a descriptor against its element exactly, in O(1): the
magnitude, P's periodicity on the torus, and V Delta_q = Delta_(S.q) V at
q = (0, 0), (1, 0), (0, 1), each side a quadratic on a coset, compared at
six points. metaplectic.intertwining_defect's Schur argument then makes V
covariant at every phase point.

Descriptor.row_terms lays out a row's support and exponents, for an int or
an int64 array of rows, and is the one place that does. Descriptor.row
reads it into one row's columns and exponents in O(N/g) integer steps, so
a caller such as the rep command can write U(S) one row at a time in O(N)
memory, with no table built; metaplectic's table view reads it for all
rows at once.

Pure Python: no numpy, so the integer layers stay light.
"""

from __future__ import annotations

import math

from .lattice import ODD, hilbert_dim, kernel_step
from .modring import _Frozen
from .symplectic import four_factor_word

# Points on which an integer quadratic in two variables that vanishes mod L
# vanishes on all of Z^2 (its Newton forward differences)
_NEWTON = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))


class Descriptor(_Frozen):
    """U(S) as integers: entry [i, k] is sqrt(g/N) zeta^(P(i, m) + eighth L/8)
    for k = offset + stride i + gcd m (mod dim), zeta = exp(2 pi i / L) with
    L = root_modulus, and 0 off that coset.

    coefficients are P's (c0, ci, cm, cii, cim, cmm) mod L, for
    P = c0 + ci i + cm m + cii i^2 + cim i m + cmm m^2; square is the
    entries' squared magnitude as a pair (numerator, denominator).
    """

    __slots__ = __match_args__ = (
        "dim", "root_modulus", "gcd", "offset", "stride", "coefficients", "eighth", "square",
    )

    def __init__(self, dim, root_modulus, gcd, offset, stride, coefficients, eighth, square):
        self._init(dim, root_modulus, gcd, offset, stride, coefficients, eighth, square)

    def exponent(self, i: int, m: int) -> int:
        """P(i, m) + eighth L/8 mod L, at any integers i and m."""
        c0, ci, cm, cii, cim, cmm = self.coefficients
        value = c0 + i * (ci + cii * i + cim * m) + m * (cm + cmm * m)
        return (value + self.eighth * (self.root_modulus // 8)) % self.root_modulus

    def row_terms(self, i):
        """Row i's layout, for an int or an int64 array i: its first column
        r < g, and the exponent at column r + g m', first + m' (slope +
        curve m') mod L, with curve = cmm mod L for every row. Column
        k = kappa + delta i + g m is read at m = m' - t, with
        t = ((kappa + delta i) mod N) // g, so first is P(i, -t) with the
        eighth root and slope = cm + cim i - 2 cmm t. The coefficients are
        reduced mod L before any product, which keeps int64 exact at every
        N the byte bounds admit."""
        n, root_modulus, g = self.dim, self.root_modulus, self.gcd
        c0, ci, cm, cii, cim, cmm = (int(c) % root_modulus for c in self.coefficients)
        t, r = divmod((self.offset + self.stride * i) % n, g)
        linear = cm + cim * i
        first = (c0 + self.eighth * (root_modulus // 8)
                 + i * ((ci + cii * i) % root_modulus)
                 - t * ((linear - cmm * t) % root_modulus)) % root_modulus
        return r, first, (linear - 2 * cmm * t) % root_modulus

    def row(self, i: int) -> tuple[range, list[int]]:
        """Row i's support in column order, the columns r, r + g, ... < dim
        as a range, and the exponent at each, a list of N/g integers in
        O(N/g) integer steps (row_terms)."""
        n, root_modulus, g = self.dim, self.root_modulus, self.gcd
        r, first, slope = self.row_terms(i)
        curve = self.coefficients[5] % root_modulus
        steps = range(n // g)
        return range(r, n, g), [(first + m * (slope + curve * m)) % root_modulus for m in steps]


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0: 0 if gcd(a, n) > 1."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def gauss(a: int, n: int) -> tuple[int, int]:
    """G(a; n) = sum over x mod n of e(a x^2 / n), for gcd(a, n) = 1 and n
    odd or 4 | n, as (eighth, square): G = sqrt(square) e(eighth / 8).

    n odd: (a/n) eps_n sqrt(n), eps_n = 1 if n = 1 mod 4 and i otherwise.
    4 | n: (1 + i) eps_a^-1 (n/a) sqrt(n), a taken mod n. Both symbols are
    Jacobi symbols.
    """
    if n % 2:
        return (0 if jacobi(a, n) == 1 else 4) + (0 if n % 4 == 1 else 2), n
    a %= n
    return (1 + (0 if a % 4 == 1 else 6) + (0 if jacobi(n, a) == 1 else 4)) % 8, 2 * n


def _sum_shape(a: int, n: int) -> tuple[int, int, int, int, int, int, int]:
    """S(a, b; n) = sum over x mod n of e((a x^2 + b x) / n) as a function of
    b, as (h, tau, lift, w, denominator, eighth, square):

        S = sqrt(square) e(eighth / 8) e(-w (b / lift)^2 / denominator)

    where b = tau (mod h), and 0 elsewhere. With g1 = gcd(a, n), n1 = n/g1
    and a1 = a/g1 (a unit mod n1), S is g1 times the complete sum over
    Z_n1 with b1 = b/g1 if g1 | b, and 0 otherwise. Completing the square:
    n1 odd gives G(a1; n1) e(-(4 a1)^-1 b1^2 / n1); n1 = 2o with o odd
    splits by the CRT into 2 G(2 a1; o) e(-(8 a1)^-1 b1^2 / o), 0 unless b1
    is odd; 4 | n1 gives G(a1; n1) e(-a1^-1 (b1/2)^2 / n1), 0 unless b1 is
    even."""
    g1 = math.gcd(a, n)
    n1 = n // g1
    a1 = a // g1 % n1
    if n1 % 2:
        eighth, square = gauss(a1, n1)
        return g1, 0, g1, pow(4 * a1, -1, n1), n1, eighth, g1 * g1 * square
    if n1 % 4 == 2:
        o = n1 // 2
        eighth, square = gauss(2 * a1, o)
        return 2 * g1, g1, g1, pow(8 * a1, -1, o), o, eighth, 4 * g1 * g1 * square
    eighth, square = gauss(a1, n1)
    return 2 * g1, 0, 2 * g1, pow(a1, -1, n1), n1, eighth, g1 * g1 * square


def chirp_eighth(n: int, parity: str) -> int:
    """lambda_0, the sum of U(h+)'s first column, as the exponent of an
    eighth root of unity: the phase of G((N+1)/2; N) on odd lattices and of
    G(1; 2N) on even ones."""
    if parity == ODD:
        return gauss((n + 1) // 2, n)[0]
    return gauss(1, 2 * n)[0]


def _square(c0: int, ci: int, cm: int) -> tuple[int, int, int, int, int, int]:
    """(c0 + ci i + cm m)^2 as quadratic coefficients."""
    return (c0 * c0, 2 * c0 * ci, 2 * c0 * cm, ci * ci, 2 * ci * cm, cm * cm)


def _chirp(p, k: int, n: int, odd: bool, coset, root_modulus: int):
    """P plus the column chirp k e(c) in zeta units, c = kappa + delta i + g m:
    4k(c^2 + N c) on odd lattices, 8k c^2 on even ones."""
    g, kappa, delta = coset
    square = _square(kappa, delta, g)
    if odd:
        linear = (n * kappa, n * delta, n * g, 0, 0, 0)
        return tuple((c + 4 * k * (s + t)) % root_modulus for c, s, t in zip(p, square, linear))
    return tuple((c + 8 * k * s) % root_modulus for c, s in zip(p, square))


def _dft(p, sign: int, n: int, coset, root_modulus: int):
    """The row transform f <- sum over c of U[i, c] e(sign f c / N), exactly:
    the new coset (g', kappa', delta') of f, P' in (i, m') with
    f = kappa' + delta' i + g' m', and the sum's eighth root and squared
    magnitude. ArithmeticError if the input is not periodic in m."""
    g, kappa, delta = coset
    c0, ci, cm, cii, cim, cmm = p
    step = root_modulus // n * sign  # e(sign f c / N) = zeta^(step f c)
    q = root_modulus // n * g
    if (2 * cmm) % q or (2 * cm) % q or (2 * cim) % q:
        raise ArithmeticError("descriptor is not periodic in m")
    # sum over m of zeta^(cmm m^2 + (cm + cim i + step g f) m) is half of
    # S(a, b0 + bi i + bf f; 2N/g)
    a, b0, bi, bf = 2 * cmm // q, 2 * cm // q, 2 * cim // q, 2 * sign
    h, tau, lift, w, denominator, eighth, square = _sum_shape(a, 2 * n // g)
    # the support b = tau (mod h), solved for f: f = kappa' + delta' i (mod g')
    d = math.gcd(bf, h)
    new_g = h // d
    if (tau - b0) % d or bi % d or n % new_g:
        raise ArithmeticError("Gauss-sum support is not a coset of Z_N")
    inverse = pow(bf // d, -1, new_g)
    new_kappa = inverse * ((tau - b0) // d) % new_g
    new_delta = inverse * (-bi // d) % new_g
    # b / lift in (i, m'), and the rest of the phase at f = kappa' + delta' i + g' m'
    beta = (b0 + bf * new_kappa, bi + bf * new_delta, bf * new_g)
    if any(c % lift for c in beta):
        raise ArithmeticError("Gauss-sum support is not a coset of Z_N")
    chirp = _square(*(c // lift for c in beta))
    weight = w * (root_modulus // denominator)
    rest = (
        c0 + step * kappa * new_kappa,
        ci + step * (kappa * new_delta + delta * new_kappa),
        step * kappa * new_g,
        cii + step * delta * new_delta,
        step * delta * new_g,
        0,
    )
    new_p = tuple((r - weight * c) % root_modulus for r, c in zip(rest, chirp))
    return new_p, (new_g, new_kappa, new_delta), eighth, square


def compose(word, parity: str) -> Descriptor:
    """The Descriptor of the product of ``word``'s generator powers, each
    applied as a right multiplication in metaplectic._u_stack's factor order,
    with its lambda_0 twists: along four_factor_word(s) its exponents are
    u_table(s, parity)'s; along any other word for s they differ from them
    by one constant. ArithmeticError if a step leaves the closed form,
    which no true word does."""
    modulus = word.modulus
    n = hilbert_dim(modulus, parity)
    odd = parity == ODD
    root_modulus = 8 * modulus
    lambda_0 = chirp_eighth(n, parity)
    p, coset, eighth, numerator, denominator = (0,) * 6, (n, 0, 1), 0, 1, 1
    for sign, k in word.factors:
        if sign == "-":
            p = _chirp(p, k, n, odd, coset, root_modulus)
            continue
        # inverse DFT with its 1/N, chirp and twist, DFT
        p, coset, first, first_square = _dft(p, 1, n, coset, root_modulus)
        p = _chirp(p, -k, n, odd, coset, root_modulus)
        p, coset, second, second_square = _dft(p, -1, n, coset, root_modulus)
        eighth += first + second + lambda_0 * k
        # each sum is half of S, so its squared magnitude is square / 4
        numerator *= first_square * second_square
        denominator *= 16 * n * n
        common = math.gcd(numerator, denominator)
        numerator, denominator = numerator // common, denominator // common
    g, kappa, delta = coset
    return Descriptor(n, root_modulus, g, kappa, delta, p, eighth % 8, (numerator, denominator))


def descriptor(s, parity: str) -> Descriptor:
    """U(S)'s Descriptor, composed along four_factor_word(s)."""
    return compose(four_factor_word(s), parity)


def certify(form: Descriptor, s, parity: str) -> bool:
    """Whether ``form`` is exactly covariant for ``s``, in O(1) integer work.

    1. g | N and the squared magnitude is g/N, so every row of the table
       has unit norm.
    2. P is periodic on the torus: P(i, m + N/g) = P(i, m) and
       P(i + N, m - delta N/g) = P(i, m) mod L. Each difference is affine,
       so three points decide it; the table is then well defined, and P may
       be read at unreduced indices.
    3. For q = (0, 0), (1, 0), (0, 1) and q' = S.q, with Delta_q's row i
       holding zeta^(8 e_q(i)) in column u - i (lattice.kernel_step:
       u = step x and e_q(i) = 2yi - step xy),
       (V Delta_q)[i, j] = V[i, u - j] zeta^(8 e_q(u - j)) and
       (Delta_q' V)[i, j] = zeta^(8 e_q'(i)) V[u' - i, j]. Their cosets must
       agree mod g; then, in the coset's lifted coordinates (i, mu), both
       exponents are integer quadratics, which agree mod L on all of Z^2
       if they agree at the six Newton points.
    """
    n, root_modulus, g, kappa, delta = (form.dim, form.root_modulus, form.gcd,
                                        form.offset, form.stride)
    if root_modulus != 8 * s.modulus or n != hilbert_dim(s.modulus, parity):
        return False
    numerator, denominator = form.square
    if not 0 < g <= n or n % g or numerator * n != g * denominator:
        return False
    period = n // g
    at = form.exponent
    for i, m in ((0, 0), (1, 0), (0, 1)):
        here = at(i, m)
        if at(i, m + period) != here or at(i + n, m - delta * period) != here:
            return False
    step = kernel_step(parity)
    for x, y in ((0, 0), (1, 0), (0, 1)):
        x2, y2 = (s.a * x + s.b * y) % s.modulus, (s.c * x + s.d * y) % s.modulus
        u, u2 = step * x, step * x2
        # e_q(k) = 2yk - step xy in R units, times 8 in zeta units
        const, const2 = 8 * step * x * y, 8 * step * x2 * y2
        left_offset, right_offset = u - kappa, kappa + delta * u2
        if (right_offset - left_offset) % g:
            return False
        shift = (right_offset - left_offset) // g
        for i, mu in _NEWTON:
            j = right_offset - delta * i + g * mu
            left = at(i, -mu - shift) + 16 * y * (u - j) - const
            right = 16 * y2 * i - const2 + at(u2 - i, mu)
            if (left - right) % root_modulus:
                return False
    return True
