"""The column forms of a configuration as ``MPoly`` products: the slow
oracle of the minors and lifts that ``varieties._minors`` and
``degeneration._lifts`` read off the entries."""

from mustafin.polyring import MPoly, VarUniverse, from_pi_coefficients
from mustafin.varieties import LatticeConfig


def build_g(config: LatticeConfig) -> list:
    """Matrices g_l = M_l * diag(1, pi^{n_1}, .., pi^{n_{d-1}}) with entries
    as polynomials in the configuration's universe."""
    uni = config.universe()
    dom = config.field
    exps = (0,) + config.n_vec
    pi = MPoly.var(uni, dom, "pi")
    out = []
    for l in range(config.n + 1):
        rows = []
        for r in range(config.d):
            row = []
            for i in range(config.d):
                if config.is_symbolic:
                    entry = MPoly.var(uni, dom, f"A[{r + 1}][{i + 1}][{l}]")
                else:
                    c = MPoly.const(VarUniverse(()), config.pi_ring, config.entries[l][r][i])
                    entry = from_pi_coefficients(c, uni)
                row.append(entry * pi ** exps[i])
            rows.append(row)
        out.append(rows)
    return out


def column_forms(config: LatticeConfig) -> list:
    """Column l gives the d linear forms (g_l . x_col)_r in x[.][l]."""
    uni = config.universe()
    dom = config.field
    g = build_g(config)
    cols = []
    for l in range(config.n + 1):
        forms = []
        for r in range(config.d):
            f = MPoly.zero(uni, dom)
            for i in range(config.d):
                f = f + g[l][r][i] * MPoly.var(uni, dom, f"x[{i + 1}][{l}]")
            forms.append(f)
        cols.append(forms)
    return cols
