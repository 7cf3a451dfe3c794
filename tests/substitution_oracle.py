"""The per-term substitution: the slow oracle of ``polyring.Substitution``
and so of ``specialize.subst``, which substitutes only through it."""

from mustafin.polyring import MPoly, UniverseError


def substitute(f, assignment, universe=None):
    """Image of f under the ring homomorphism sending the named variables
    to polynomials of ``universe`` (default: f's) or to coefficients, and
    every other variable to itself: one ``MPoly`` per term and per power,
    added up."""
    uni, dom = universe or f.universe, f.domain
    values = {
        name: val if isinstance(val, MPoly) else MPoly.const(uni, dom, val)
        for name, val in assignment.items()
    }
    out = MPoly.zero(uni, dom)
    for m, c in f.terms.items():
        factor = MPoly.const(uni, dom, c)
        rest = [0] * uni.nvars
        for pos, e in enumerate(m):
            name = f.universe.names[pos]
            if not e:
                continue
            if name in values:
                factor = factor * values[name] ** e
            elif name in uni:
                rest[uni.index(name)] = e
            else:
                raise UniverseError(f"variable {name} missing from target")
        out = out + factor.mono_shift(tuple(rest))
    return out
