"""Three-valued outcomes for the semi-decidable property checks.

Every Fails verdict carries a witness that re-verifies in exact arithmetic;
every Holds verdict names its certificate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

HOLDS = "Holds"
FAILS = "Fails"
INCONCLUSIVE = "Inconclusive"

# certificate kinds
ALL_ONES_EXACT = "AllOnesExact"
COEFF_NONNEG = "CoefficientNonneg"
SOS_GRAM = "SOSGram"
SINGLE_PAIR_WAGNER = "SinglePairWagner"


@dataclass(frozen=True)
class Witness:
    """An exactly-verified refutation: a rational point with negative value.
    Every check in the library records its point; only a witness built by
    hand to be refused may leave it empty."""

    value: Fraction
    point: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class Certificate:
    kind: str
    data: Any = None


@dataclass
class Verdict:
    outcome: str
    certificate: Optional[Certificate] = None
    witness: Optional[Witness] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome == FAILS

    def __repr__(self) -> str:
        extra = ""
        if self.certificate:
            extra = f", cert={self.certificate.kind}"
        if self.witness is not None:
            extra = f", witness_value={self.witness.value}"
        return f"Verdict({self.outcome}{extra})"


def holds(kind: str, data: Any = None, **diag) -> Verdict:
    return Verdict(HOLDS, certificate=Certificate(kind, data), diagnostics=diag)


def fails(witness: Witness, **diag) -> Verdict:
    return Verdict(FAILS, witness=witness, diagnostics=diag)


def inconclusive(**diag) -> Verdict:
    return Verdict(INCONCLUSIVE, diagnostics=diag)
