"""Residue-ring moduli and Euclidean quotient chains."""

from __future__ import annotations

from dataclasses import dataclass


class ModulusMismatch(ValueError):
    """Two matrices with different moduli were combined."""


class BothZero(ValueError):
    """A Euclidean quotient chain was requested for the pair (0, 0)."""


def _check_modulus(modulus: int) -> None:
    if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")


@dataclass(frozen=True)
class EuclidTrace:
    """Remainders and quotients of a run of the Euclidean algorithm.

    The chain satisfies r[i] = q[i] * r[i+1] + r[i+2] exactly, the last
    remainder is 0, and remainders strictly decrease after r[1].
    """

    remainders: tuple[int, ...]
    quotients: tuple[int, ...]

    def __post_init__(self):
        rem, quo = self.remainders, self.quotients
        if len(rem) != len(quo) + 2:
            raise ValueError("remainder chain and quotient list lengths disagree")
        for i, q in enumerate(quo):
            if rem[i] != q * rem[i + 1] + rem[i + 2]:
                raise ValueError("quotient chain does not reproduce the remainders")
        if rem[-1] != 0:
            raise ValueError("chain must terminate at remainder 0")

    @property
    def length(self) -> int:
        """Index l of the terminating zero remainder r[l]."""
        return len(self.remainders) - 1

    @property
    def gcd(self) -> int:
        return self.remainders[-2]


def euclid_trace(b: int, d: int) -> EuclidTrace:
    """Run the Euclidean algorithm on the pair (b, d) and record every step.

    Starts from r0 = max(b, d), r1 = min(b, d). Equal inputs stop after a
    single division (quotient 1, remainder 0). If one input is zero the
    chain is the degenerate (max, 0) with no quotients.
    """
    if b < 0 or d < 0:
        raise ValueError("inputs must be nonnegative")
    if b == 0 and d == 0:
        raise BothZero("Euclidean chain undefined for (0, 0)")
    remainders = [max(b, d), min(b, d)]
    quotients: list[int] = []
    if remainders[1] == 0:
        return EuclidTrace((remainders[0], 0), ())
    while remainders[-1] != 0:
        q, r = divmod(remainders[-2], remainders[-1])
        quotients.append(q)
        remainders.append(r)
    return EuclidTrace(tuple(remainders), tuple(quotients))
