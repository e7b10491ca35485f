"""Residue-ring moduli and Euclidean quotient chains."""

from __future__ import annotations

from operator import attrgetter


class ModulusMismatch(ValueError):
    """Two matrices with different moduli were combined."""


class BothZero(ValueError):
    """A Euclidean quotient chain was requested for the pair (0, 0)."""


def _check_modulus(modulus: int) -> None:
    if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")


class _Frozen:
    """Base of the integer layer's immutable value classes.

    They are plain slotted classes so that the integer layer imports nothing
    heavy: the standard library's frozen-record decorator would load inspect
    and its import chain, about 12 ms of every decompose process. A subclass
    names its fields in __slots__ and sets them once, in its __init__,
    through _init. Assignment and deletion raise AttributeError; equality
    (same class only), hashing and pickling use the field tuple, and repr
    reads Name(field=value, ...).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the field tuple, read in C (a subclass has at least two fields)
        cls._fields = attrgetter(*cls.__slots__)

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, which __setattr__ would refuse to restore
        return self.__class__, self._fields(self)


class EuclidTrace(_Frozen):
    """Remainders and quotients of a run of the Euclidean algorithm.

    The chain satisfies r[i] = q[i] * r[i+1] + r[i+2] exactly, the last
    remainder is 0, and remainders strictly decrease after r[1].
    """

    __slots__ = __match_args__ = ("remainders", "quotients")

    def __init__(self, remainders: tuple[int, ...], quotients: tuple[int, ...]):
        rem, quo = remainders, quotients
        if len(rem) != len(quo) + 2:
            raise ValueError("remainder chain and quotient list lengths disagree")
        for i, q in enumerate(quo):
            if rem[i] != q * rem[i + 1] + rem[i + 2]:
                raise ValueError("quotient chain does not reproduce the remainders")
        if rem[-1] != 0:
            raise ValueError("chain must terminate at remainder 0")
        self._init(remainders, quotients)

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
    while remainders[-1] != 0:
        q, r = divmod(remainders[-2], remainders[-1])
        quotients.append(q)
        remainders.append(r)
    return EuclidTrace(tuple(remainders), tuple(quotients))
