"""Fixed reference program whose wall time measures how fast the host runs now.

The benchmark runs it before every pass and reports the pass time as a
multiple of this program's time over the same run (``pass_ref``).  A shared
host that runs slower for minutes at a time slows both alike, so the ratio
stays where raw seconds do not.  It works the way a CLI sweep does, without
any code of the package: it starts Python, imports numpy, calls small scalar
functions for every cell of a 401 x 401 grid and formats each row with 12
significant digits.  That takes about a second; a shorter program's time
scatters more than a pass's.  Changing it moves every ``pass_ref``, so it
stays as it is.
"""

import math

import numpy as np


def xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def discord(c: float) -> float:
    return 0.25 * xlog2(1.0 - c) - 0.5 * xlog2(1.0 + c) + 0.25 * xlog2(1.0 + 3.0 * c)


def g2(c: float, phase: float) -> float:
    return (1.0 - c) / (1.0 - c * math.cos(phase)) ** 2  # c < 1 keeps the bracket positive


angles = np.linspace(-1.0, 1.0, 401).tolist()
rows = []
for c in np.linspace(0.0, 0.999, 401).tolist():
    d = discord(c)
    for s in angles:
        rows.append(",".join(f"{x:.12g}" for x in (d, c, s, g2(c, 3.0 * s))))
text = "\n".join(rows)
