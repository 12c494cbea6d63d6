"""The parts that the tests' `ChannelConfig` strategies share.

Each strategy keeps its own distribution and passes it in; these helpers
state once the rules every config obeys.  A helper draws only where it is
called, so each strategy keeps its own order of draws.
"""

from hypothesis import strategies as st


def noise_fields(draw, defense, rates, write_probs) -> dict:
    """`noise_rate` and `noise_write_prob` drawn from `rates` and `write_probs`.

    Under the partition defense the noise actor has no ways, so it gets no
    noise fields and draws nothing.
    """
    if defense == "partition":
        return {}
    return dict(noise_rate=draw(rates), noise_write_prob=draw(write_probs))


def whole_symbols(draw, encoding, symbols: int) -> str:
    """A message of `symbols` of `encoding`'s symbols, its bits drawn uniformly."""
    bits = encoding.bits_per_symbol * symbols
    return format(draw(st.integers(0, 2**bits - 1)), f"0{bits}b")
