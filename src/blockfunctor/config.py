"""Run-time limits.

All algorithms are exact and may enumerate full element lists, so group
orders are capped.  The cap can be raised through the environment.
"""

import os

from .errors import UsageError

DEFAULT_MAX_ORDER = 512
ENV_MAX_ORDER = "BLOCKFUNCTOR_MAX_ORDER"

# character arithmetic happens modulo a prime q = 1 (mod exponent) with
# q > 2|G|; the prime search gives up beyond this cap
PRIME_SEARCH_CAP = 1_000_000


def max_order() -> int:
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{ENV_MAX_ORDER} must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"{ENV_MAX_ORDER} must be positive, got {value}")
    return value
