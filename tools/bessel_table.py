"""Print the Bessel reference table that tests/test_numerics.py checks.

    python tools/bessel_table.py > tests/data/bessel_reference.csv

Needs scipy, which leobeam itself does not import: the values come from
`scipy.special.jv`.  One row per u: u, J1(u), J3(u) and the beam-pattern
bracket J1(u)/(2u) + 36 J3(u)/u^3, every float written with repr.  u runs
over a log grid on [1e-3, 300], the neighbours of the piece boundaries 4
and 30, and a few huge values up to 1e15.  Past about 1e16 scipy's argument
reduction loses the phase (its values there are off by up to 7e-9), so the
tests check larger u by the asymptotic amplitude bound instead.
"""

import numpy as np
from scipy.special import jv

BOUNDARIES = (4.0, 30.0)
HUGE = (1e3, 1e5, 1e8, 1e12, 1e15)


def grid() -> np.ndarray:
    near = [np.nextafter(b, d) for b in BOUNDARIES for d in (0.0, np.inf)]
    return np.unique(np.concatenate([np.geomspace(1e-3, 300.0, 241),
                                     BOUNDARIES, near, HUGE]))


def main() -> None:
    print("u,j1,j3,bracket")
    for u in grid().tolist():
        j1, j3 = float(jv(1, u)), float(jv(3, u))
        bracket = float(j1 / (2.0 * u) + 36.0 * j3 / u ** 3)
        print(f"{float(u)!r},{j1!r},{j3!r},{bracket!r}")


if __name__ == "__main__":
    main()
