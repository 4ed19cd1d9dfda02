"""Negative control for the identity checker.

Usage: python perfbench/negative_control.py

Checks the A3, k=1 numerator identity for mu=(1,0,0), nu=(0,0,1) over the
full residue scan with every fusion coefficient raised by 1.  The identity
is then false, so a sound checker reports ``passed: false``.  Prints one
JSON object with the report's verdict, point count and residual.
"""

from __future__ import annotations

import json
from itertools import product

from fusionkit.algebra import build_algebra
from fusionkit.fusion import fuse_level_k
from fusionkit.identity import verify_numerator_identity

SERIES, RANK, LEVEL = "A", 3, 1
MU, NU = (1, 0, 0), (0, 0, 1)


def main() -> None:
    spec = build_algebra(SERIES, RANK)
    level_shifted = LEVEL + spec.dual_coxeter
    gammas = list(product(range(level_shifted), repeat=spec.rank))
    corrupted = {w: n + 1 for w, n in fuse_level_k(spec, MU, NU, LEVEL).items()}
    report = verify_numerator_identity(spec, MU, NU, LEVEL, gammas, coefficients=corrupted)
    print(json.dumps({
        "passed": report.passed,
        "points_checked": report.points_checked,
        "max_abs_residual": report.max_abs_residual,
    }))


if __name__ == "__main__":
    main()
