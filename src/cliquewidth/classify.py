"""Which (H1, H2)-free classes have bounded clique-width."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PairStatus:
    s: int
    t: int
    status: str  # "Bounded" | "Unbounded"


def classify_pair(s: int, t: int) -> PairStatus:
    """Boundedness of the (sP1+P2, co(tP1+P2))-free family: bounded exactly
    when s <= 1 or t <= 1 or s + t <= 5."""
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    bounded = s <= 1 or t <= 1 or s + t <= 5
    return PairStatus(s, t, "Bounded" if bounded else "Unbounded")
