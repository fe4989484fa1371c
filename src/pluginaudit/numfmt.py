"""Fixed-precision percent rendering used across reports.

All percentages are computed at full precision and rendered with
round-half-away-from-zero at the stated number of decimals, so rendered
reports are byte-stable across platforms.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_UP


def render_pct(value: float, decimals: int = 1) -> str:
    quant = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(value)).quantize(quant, rounding=ROUND_HALF_UP))


def render_ratio_pct(numerator: int, denominator: int, decimals: int = 1) -> str:
    return render_pct(100.0 * numerator / denominator, decimals)


def render_change_pct(before: int, after: int) -> str:
    if before == 0:
        return "n/a"
    return render_pct((after - before) / before * 100.0)
