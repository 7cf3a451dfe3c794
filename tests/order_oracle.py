"""The tuple keys of the term orders of ``polyring``: the slow oracle of
their packed keys (``TermOrder.packed_key``), which define the orders."""

from mustafin.polyring import Block, DegRevLex, Lex, UniverseError, WeightedOrder, WeightedPiOrder


def key(order, mono: tuple) -> tuple:
    """A flat tuple of ints, of one length per order and universe: the
    larger key belongs to the larger monomial."""
    if isinstance(order, Lex):
        return mono if order.perm is None else tuple(mono[i] for i in order.perm)
    if isinstance(order, DegRevLex):
        return (sum(mono), *[-e for e in reversed(mono)])
    if isinstance(order, Block):
        # segment keys have fixed lengths, so concatenating them compares
        # segment by segment
        out: list = []
        for idx, sub in order.segments:
            out.extend(key(sub, tuple(mono[i] for i in idx)))
        return tuple(out)
    w = sum(a * b for a, b in zip(mono, order.weights))
    if isinstance(order, WeightedPiOrder):
        return (w, -mono[order.pi_index], sum(mono), *[-e for e in reversed(mono)])
    if isinstance(order, WeightedOrder):
        return (w, sum(mono), *[-e for e in reversed(mono)])
    raise TypeError(f"no tuple key for {order!r}")


def compare(order, m1: tuple, m2: tuple) -> int:
    """1, 0 or -1 as m1 is above, equal to or below m2."""
    if len(m1) != len(m2):
        raise UniverseError("monomials from different universes")
    k1, k2 = key(order, m1), key(order, m2)
    return (k1 > k2) - (k1 < k2)
