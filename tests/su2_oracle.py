"""Closed forms of su(2)_k: the character numerator as an explicit scalar
two-term sum, an oracle for the lattice theta sums of fusionkit.theta that
shares no code with them, and the level-k character as a ratio of sines, an
oracle for the Weyl ratios of fusionkit.characters.  Test modules import
this file as a plain module (``from su2_oracle import ...``); pytest puts
the tests directory on sys.path.
"""

import cmath
import math

from fusionkit.characters import DENOMINATOR_FLOOR
from fusionkit.errors import SingularPointError


def char_su2_closed(n: int, k: int, x: float) -> float:
    """Closed-form level-k su(2) character sin(pi (n+1) x/(k+2)) / sin(pi x/(k+2))."""
    denominator = math.sin(math.pi * x / (k + 2))
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise SingularPointError(f"x = {x} is a zero of the level-{k} su(2) denominator")
    return math.sin(math.pi * (n + 1) * x / (k + 2)) / denominator


def su2_numerator_closed(j: int, k: int, tau: complex, u: complex,
                         epsilon: float = 1e-12) -> complex:
    """The su(2)_k character numerator

        sum_{a in Z}  e^{2 pi i tau K (a + m/2K)^2 + 2 pi i K (a + m/2K) u}
                    - e^{2 pi i tau K (a - m/2K)^2 + 2 pi i K (a - m/2K) u}

    with m = j+1 and K = k+2.  Agrees with theta_weyl on A1 at
    gamma = (j+1,), and vanishes identically at j = k+1; for j+m > k+1 the
    reflection chi_{j+m} = -chi_{2(k+1)-j-m} follows by an index shift.
    """
    tau = complex(tau)
    if not (cmath.isfinite(tau) and cmath.isfinite(u)):
        raise ValueError(f"tau and u must be finite, got {tau}, {u}")
    if tau.imag <= 0:
        raise ValueError(f"Im(tau) = {tau.imag} must be positive")
    two_pi = 2 * math.pi
    level = k + 2
    shift = (j + 1) / (2.0 * level)
    decay = two_pi * tau.imag * level
    growth = two_pi * level * abs(complex(u).imag)
    bound = 3 + math.ceil(
        abs(shift) + growth / (2 * decay) + math.sqrt(max(math.log(1 / epsilon), 1.0) / decay)
    )

    def term(x: float) -> complex:
        return cmath.exp(1j * two_pi * tau * level * x * x + 1j * two_pi * level * x * u)

    total = 0j
    for a in range(-bound, bound + 1):
        total += term(a + shift) - term(a - shift)
    return total
