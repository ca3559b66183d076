"""Discrimination instances, projective measurement likelihoods, Helstrom quantities.

The two hypotheses are pure qubit states separated by an opening angle of
2*theta in Hilbert space, with the bisector along the computational |x> axis.
A projective measurement is parametrized by a single angle phi in [0, pi/2);
outcome d=1 projects onto the vector at angle phi, outcome d=2 onto its
orthogonal complement.  All angles are radians.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

__all__ = [
    "DiscriminationProblem",
    "likelihoods",
    "helstrom_angle",
    "collective_error",
]


def _check_integer(name: str, value, least: int) -> None:
    """Raises ValueError unless value is an integer >= least; bools fail, numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class DiscriminationProblem:
    """A two-state discrimination instance: state angle theta and priors (q1, q2).

    q2 is always derived as 1 - q1; the constructor is the only place the
    pair is formed, so q1 + q2 == 1 holds exactly as stored.
    """

    theta: float
    q1: float = 0.5
    q2: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi / 4:
            raise ValueError(f"theta must lie in (0, pi/4), got {self.theta}")
        if not 0.0 < self.q1 < 1.0:
            raise ValueError(f"q1 must lie in (0, 1), got {self.q1}")
        object.__setattr__(self, "q2", 1.0 - self.q1)

    @property
    def overlap(self) -> float:
        """State overlap cos(2*theta), in (0, 1)."""
        return math.cos(2.0 * self.theta)


def likelihoods(problem: DiscriminationProblem, phi: float) -> tuple[float, float, float, float]:
    """P(1|psi1), P(2|psi1), P(1|psi2) and P(2|psi2) at the measurement angle phi."""
    if not 0.0 <= phi < math.pi / 2:
        raise ValueError(f"measurement angle must lie in [0, pi/2), got {phi}")
    theta = problem.theta
    return (math.cos(phi - theta) ** 2, math.sin(phi - theta) ** 2,
            math.cos(phi + theta) ** 2, math.sin(phi + theta) ** 2)


def helstrom_angle(problem: DiscriminationProblem) -> float:
    """Measurement angle minimizing the single-copy average error.

    For equal priors this is exactly pi/4 (explicit branch; the formula has a
    division by q1 - q2).  For q1 < q2 the arctangent branch is shifted by
    pi/2 so the angle stays in (0, pi/2).
    """
    q1, q2 = problem.q1, problem.q2
    if q1 == q2:
        return math.pi / 4
    phi = 0.5 * math.atan(math.tan(2.0 * problem.theta) / (q1 - q2))
    if q1 < q2:
        phi += math.pi / 2
    return phi


def collective_error(problem: DiscriminationProblem, n: int) -> float:
    """Minimum average error achievable with n copies (joint-measurement bound).

    Strictly decreasing in n; n=1 reproduces the Helstrom error.  Evaluated
    as x / (2 + 2 sqrt(1 - x)), x = 4 q1 q2 c^(2n), which equals
    (1 - sqrt(1 - x)) / 2 without its cancellation at small x.
    """
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    x = 4.0 * problem.q1 * problem.q2 * problem.overlap ** (2 * n)
    return 0.5 * x / (1.0 + math.sqrt(1.0 - x))
