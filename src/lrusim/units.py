"""Unit conventions and conversions.

All internal quantities are angular frequencies with hbar = 1. When built
from laboratory numbers, the internal units are rad/us for rates and us for
times, i.e. an ordinary frequency f in MHz enters as omega = 2*pi*f.
Dimensionless runs (J = 1) work the same way; only the thermal Boltzmann
factor needs an absolute energy scale and is therefore tied to the rad/us
convention.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# hbar / k_B expressed for energies in rad/us and temperatures in kelvin:
# beta * E = HBAR_OVER_KB_US * E[rad/us] / T[K]
_HBAR = 1.054571817e-34  # J s
_KB = 1.380649e-23  # J / K
HBAR_OVER_KB_US = _HBAR * 1e6 / _KB  # K us / rad


def angular_from_mhz(f_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/us."""
    return TWO_PI * f_mhz

