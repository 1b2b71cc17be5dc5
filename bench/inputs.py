"""Seeded inputs for the rank workloads.

The same seed always gives the same bytes.  The program under test only
ever sees the files written here, never the seed.

* ``distinct_csv``: every score is a distinct exact decimal, so the
  induced order is linear with one tier per row.
* ``ties_csv``: a few hundred distinct values repeated over many rows,
  plus an epsilon that chains some adjacent values into one tier but
  not all of them.
* ``HUGE_EXPONENT_CSV``: fixed, seed-independent; parsing its scores as
  exact fractions builds 10**20000000.
"""

from __future__ import annotations

import random

DISTINCT_ROWS = 20_000
TIES_ROWS = 20_000
TIES_VALUES = 300
# Scores are m / 10**SCALE for integers m, so every value is an exact decimal.
SCALE = 3
# Gaps between adjacent distinct tie values, in units of 10**-SCALE.  Gaps up
# to TIES_EPSILON_UNITS are chained into one tier by --tie-epsilon.
TIES_GAPS = (1, 2, 5, 10, 25, 80)
TIES_EPSILON_UNITS = 5
TIES_EPSILON = "0.005"

HUGE_EXPONENT_CSV = "a,1e20000000\nb,1e-20000000\nc,1"
# Dense ranking of HUGE_EXPONENT_CSV, best first.
HUGE_EXPONENT_ORDER = ("a", "c", "b")


def render_score(m: int, style: int) -> str:
    """Write m / 10**SCALE exactly, in one of three textual forms.

    Style 0 is the shortest plain decimal, style 1 keeps a padded
    fraction part with a trailing zero, style 2 is integer-mantissa
    scientific notation.  All three parse to the same exact value.
    """
    if style == 2:
        return f"{m}e-{SCALE}"
    sign = "-" if m < 0 else ""
    whole, frac = divmod(abs(m), 10**SCALE)
    digits = f"{frac:0{SCALE}d}"
    if style == 1:
        return f"{sign}{whole}.{digits}0"
    digits = digits.rstrip("0")
    return f"{sign}{whole}.{digits}" if digits else f"{sign}{whole}"


def _ids(rng: random.Random, count: int) -> list[str]:
    # Distinct ids whose sort order is unrelated to the row or score order.
    return [f"i{k:07x}" for k in rng.sample(range(16**7), count)]


def distinct_csv(seed: int, rows: int = DISTINCT_ROWS) -> str:
    rng = random.Random(f"rank-distinct:{seed}")
    values = rng.sample(range(-(10**9), 10**9), rows)
    ids = _ids(rng, rows)
    return "".join(
        f"{ident},{render_score(m, rng.randrange(3))}\n" for ident, m in zip(ids, values)
    )


def tie_values(rng: random.Random, count: int = TIES_VALUES) -> list[int]:
    """Distinct integers whose adjacent gaps include some at most
    TIES_EPSILON_UNITS and some above it."""
    gaps = [rng.choice(TIES_GAPS) for _ in range(count - 1)]
    gaps[0], gaps[1] = min(TIES_GAPS), max(TIES_GAPS)
    values = [rng.randrange(-(10**6), 10**6)]
    for gap in gaps:
        values.append(values[-1] + gap)
    return values


def ties_csv(seed: int, rows: int = TIES_ROWS, count: int = TIES_VALUES) -> str:
    rng = random.Random(f"rank-ties:{seed}")
    values = tie_values(rng, count)
    # Every value occurs at least once; the rest are drawn at random.
    picks = values + [rng.choice(values) for _ in range(rows - count)]
    rng.shuffle(picks)
    ids = _ids(rng, rows)
    return "".join(
        f"{ident},{render_score(m, rng.randrange(3))}\n" for ident, m in zip(ids, picks)
    )
