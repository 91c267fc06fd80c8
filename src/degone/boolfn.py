"""Boolean functions on a domain, stored as bitvectors.

Bit i of ``bits`` is the value at vertex i in the domain's canonical
order (vertex 0 = least significant bit).  Functions serialize as
lowercase hex of that integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Domain, DomainError


@dataclass(frozen=True)
class BoolFn:
    domain: Domain
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.domain.v:
            raise DomainError("bitvector does not fit the domain")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def value(self, i: int) -> int:
        return (self.bits >> i) & 1

    def values(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.domain.v)]

    def complement(self) -> "BoolFn":
        mask = (1 << self.domain.v) - 1
        return BoolFn(self.domain, self.bits ^ mask)

    def _coerce(self, other: "BoolFn") -> int:
        if not self.domain.compatible(other.domain):
            raise DomainError("functions live on different domains")
        return other.bits

    def __and__(self, other: "BoolFn") -> "BoolFn":
        return BoolFn(self.domain, self.bits & self._coerce(other))

    def __or__(self, other: "BoolFn") -> "BoolFn":
        return BoolFn(self.domain, self.bits | self._coerce(other))

    def to_hex(self) -> str:
        width = (self.domain.v + 3) // 4
        return format(self.bits, f"0{width}x")

    @staticmethod
    def from_hex(domain: Domain, text: str) -> "BoolFn":
        if not text or set(text) - set("0123456789abcdef"):
            raise DomainError(f"a function is lowercase hex digits, not {text!r}")
        return BoolFn(domain, int(text, 16))

    @staticmethod
    def from_values(domain: Domain, values) -> "BoolFn":
        bits = 0
        for i, x in enumerate(values):
            if x not in (0, 1):
                raise DomainError("values must be 0/1")
            bits |= x << i
        return BoolFn(domain, bits)

    @staticmethod
    def constant(domain: Domain, value: int) -> "BoolFn":
        return BoolFn(domain, ((1 << domain.v) - 1) if value else 0)

    def support(self) -> list[int]:
        return [i for i in range(self.domain.v) if (self.bits >> i) & 1]
