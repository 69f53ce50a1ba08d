"""Unit conversion constants.

Hydraulic input files use GPM for flow rates and cubic feet for tank
volumes (the conventions of common network simulation tools); everything
internal is SI (m^3/s, m^3, m, s).  Reaction rate constants are given in
1/hour and kept that way; time steps are converted to hours wherever a
rate constant multiplies them.
"""

GPM_TO_M3S = 6.30901964e-5   # 1 US gallon/minute in m^3/s
FT3_TO_M3 = 0.028316846592   # 1 cubic foot in m^3

SECONDS_PER_HOUR = 3600.0


def gpm(value: float) -> float:
    """Flow in GPM -> m^3/s."""
    return value * GPM_TO_M3S


def ft3(value: float) -> float:
    """Volume in ft^3 -> m^3."""
    return value * FT3_TO_M3
