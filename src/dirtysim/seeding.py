"""Stable seed derivation, and `check_int`, the one rule for every count and seed.

Seeds are hashed as text, so 1, 1.0 and True would replay differently.  Every
module imports `check_int` from here, since this one imports none of them.
"""

import hashlib
import random


def check_int(name: str, value, least: int | None = None) -> None:
    """Reject integer field `name`'s value unless an int, not a bool, and >= `least` if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def derive_seed(*parts) -> int:
    """Collapse a mixed tuple of labels/ints into a stable 64-bit seed.

    Uses SHA-256 of the stringified parts, so results do not depend on
    PYTHONHASHSEED or platform word size.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_bits(n: int, seed) -> str:
    """Return an n-character '0'/'1' string; `seed` is any value with a stable text form."""
    check_int("n", n, 0)
    rng = random.Random(derive_seed("bits", seed))
    return "".join(rng.choice("01") for _ in range(n))
