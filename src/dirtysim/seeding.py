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


# `random.choice("01")` keeps the top two bits of one 32-bit word and redraws
# on 2 or 3, so a word's top byte 0-63 is "0", 64-127 is "1", 128-255 no bit.
_BIT_OF_TOP_BYTE = b"0" * 64 + b"1" * 64 + bytes(128)
_NO_BIT = bytes(range(128, 256))


def random_bits(n: int, seed) -> str:
    """Return an n-character '0'/'1' string; `seed` is any value with a stable text form.

    The string is that of n `rng.choice("01")` calls, drawn in bulk: each
    round draws one 32-bit word per bit still missing in one `getrandbits`
    call, which places the words least significant first, so their top
    bytes come in the order `choice` would draw them one by one.
    """
    check_int("n", n, 0)
    rng = random.Random(derive_seed("bits", seed))
    bits = b""
    while len(bits) < n:
        words = n - len(bits)
        top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top_bytes.translate(_BIT_OF_TOP_BYTE, _NO_BIT)
    return bits.decode()
