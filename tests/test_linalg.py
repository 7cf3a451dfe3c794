"""Exact linear algebra: the sparse echelon kernel of ``groebner`` and the
criterion-5 oracles on it against dense Gauss-Jordan elimination, and the
one determinant against the Leibniz formula and the adjugate identity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mustafin import polyring
from mustafin.acceptance import _la_membership, _monos_up_to, _zfree_span
from mustafin.coeffs import GF, QQ, DomainError, PiRing
from mustafin.groebner import _Echelon, linear_relations, span_member
from mustafin.polyring import MPoly, VarUniverse, _packing
from mustafin.syzygy import _adjugate
from mustafin.varieties import LatticeConfig, _det, random_config

# ---------------------------------------------------------------------------
# dense Gauss-Jordan elimination, the slow oracle


def dense_zfree_span(columns, zpos, dom):
    """Members of the span of ``columns`` with no z-variable, by reduced
    row-echelon form of the z-involving coordinates: one kernel vector per
    free column, for the first ten free columns."""
    all_monos = sorted({m for col in columns for m in col.terms})
    z_monos = [m for m in all_monos if m[zpos]]
    idx = {m: i for i, m in enumerate(z_monos)}
    rows = len(z_monos)
    cols = len(columns)
    matrix = [[dom.zero] * cols for _ in range(rows)]
    for c, col in enumerate(columns):
        for m, v in col.terms.items():
            if m[zpos]:
                matrix[idx[m]][c] = v
    pivot_of_col = {}
    pivot_row = 0
    for c in range(cols):
        sel = None
        for r in range(pivot_row, rows):
            if not dom.is_zero(matrix[r][c]):
                sel = r
                break
        if sel is None:
            continue
        matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
        inv = dom.inv(matrix[pivot_row][c])
        matrix[pivot_row] = [dom.mul(inv, v) for v in matrix[pivot_row]]
        for r in range(rows):
            if r != pivot_row and not dom.is_zero(matrix[r][c]):
                f = matrix[r][c]
                matrix[r] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_of_col[c] = pivot_row
        pivot_row += 1
        if pivot_row == rows:
            break
    out = []
    free_cols = [c for c in range(cols) if c not in pivot_of_col]
    for fc in free_cols[:10]:
        coeffs = [dom.zero] * cols
        coeffs[fc] = dom.one
        for c, r in pivot_of_col.items():
            coeffs[c] = dom.neg(matrix[r][fc])
        combo = None
        for c, lam in enumerate(coeffs):
            if dom.is_zero(lam):
                continue
            piece = columns[c].scale(lam)
            combo = piece if combo is None else combo + piece
        if combo:
            out.append(combo)
    return out


def dense_la_membership(f, gens, deg_bound):
    """Is f a combination sum h_i g_i with deg(h_i) <= deg_bound - deg(g_i)?
    Gauss-Jordan elimination on the augmented matrix [m * g_i | f]."""
    uni, dom = f.universe, f.domain
    columns = []
    for g in gens:
        for q in _monos_up_to(uni.nvars, deg_bound - g.total_degree()):
            columns.append(g.mono_shift(q))
    row_monos = sorted({m for col in columns for m in col.terms} | set(f.terms))
    idx = {m: i for i, m in enumerate(row_monos)}
    matrix = [[dom.zero] * len(columns) for _ in row_monos]
    for c, col in enumerate(columns):
        for m, v in col.terms.items():
            matrix[idx[m]][c] = v
    rhs = [dom.zero] * len(row_monos)
    for m, v in f.terms.items():
        rhs[idx[m]] = v
    rows, cols = len(matrix), len(columns)
    pivot_row = 0
    for col in range(cols):
        sel = None
        for r in range(pivot_row, rows):
            if not dom.is_zero(matrix[r][col]):
                sel = r
                break
        if sel is None:
            continue
        matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
        rhs[pivot_row], rhs[sel] = rhs[sel], rhs[pivot_row]
        inv = dom.inv(matrix[pivot_row][col])
        matrix[pivot_row] = [dom.mul(inv, v) for v in matrix[pivot_row]]
        rhs[pivot_row] = dom.mul(inv, rhs[pivot_row])
        for r in range(rows):
            if r != pivot_row and not dom.is_zero(matrix[r][col]):
                factor = matrix[r][col]
                matrix[r] = [dom.sub(a, dom.mul(factor, b)) for a, b in zip(matrix[r], matrix[pivot_row])]
                rhs[r] = dom.sub(rhs[r], dom.mul(factor, rhs[pivot_row]))
        pivot_row += 1
        if pivot_row == rows:
            break
    for r in range(rows):
        if all(dom.is_zero(v) for v in matrix[r]) and not dom.is_zero(rhs[r]):
            return False
    return True


# ---------------------------------------------------------------------------
# the sparse echelon against the oracle

UNI = VarUniverse(("x", "y", "z"))
ZPOS = 2
F7 = GF(7)
DOMAINS = [F7, GF(32003), QQ]


def coefficient(dom):
    if dom is QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).filter(bool)
    return st.integers(1, dom.characteristic - 1)


@st.composite
def linalg_case(draw):
    """Generators over GF(p) or QQ, the columns m * g up to a degree bound,
    a few of them repeated or scaled (so some combinations vanish), and a
    candidate f: a combination of columns, possibly plus monomials of
    degree 5 that no column carries."""
    dom = draw(st.sampled_from(DOMAINS))
    mono = st.tuples(*[st.integers(0, 2)] * 3)
    poly = st.dictionaries(mono, coefficient(dom), min_size=1, max_size=4).map(
        lambda t: MPoly(UNI, dom, t)
    )
    gens = draw(st.lists(poly.filter(bool), min_size=1, max_size=3))
    bound = draw(st.integers(0, 4))
    columns = [
        g.mono_shift(q)
        for g in gens
        for q in _monos_up_to(3, bound - g.total_degree())
    ]
    for k, lam in draw(st.lists(st.tuples(st.integers(0, 50), coefficient(dom)), max_size=3)):
        if columns:
            columns.insert(k % len(columns), columns[k % len(columns)].scale(lam))
    f = MPoly.zero(UNI, dom)
    for k, lam in draw(st.lists(st.tuples(st.integers(0, 50), coefficient(dom)), max_size=4)):
        if columns:
            f = f + columns[k % len(columns)].scale(lam)
    quintic = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda a: sum(a) <= 5)
    for a, b in draw(st.lists(quintic, max_size=2)):
        m = (a, b, 5 - a - b)
        f = f + MPoly.term(UNI, dom, dom.one, m)
    return dom, gens, bound, columns, f


@given(linalg_case())
@settings(max_examples=150, deadline=None)
def test_sparse_echelon_matches_dense_gauss_jordan(case):
    dom, gens, bound, columns, f = case
    assert _zfree_span(columns, ZPOS, dom) == dense_zfree_span(columns, ZPOS, dom)
    if f:
        assert _la_membership(f, gens, bound) == dense_la_membership(f, gens, bound)
        assert _la_membership(f, gens, bound + 1) == dense_la_membership(f, gens, bound + 1)


def test_zfree_span_stops_after_ten_free_columns():
    # twelve z-free columns: all free, the first ten come back unchanged
    columns = [MPoly.term(UNI, F7, 3, (i, j, 0)) for i in range(4) for j in range(3)]
    assert _zfree_span(columns, ZPOS, F7) == columns[:10]
    assert dense_zfree_span(columns, ZPOS, F7) == columns[:10]


def test_zfree_span_skips_zero_combinations():
    x, y, z = (MPoly.var(UNI, QQ, v) for v in "xyz")
    # the repeated column is free with a zero combination, which is skipped;
    # the last column's z-part is the first's minus the third's, leaving 2y - x
    columns = [x * z + x, x * z + x, y * z + y, x * z - y * z + y]
    expected = dense_zfree_span(columns, ZPOS, QQ)
    assert _zfree_span(columns, ZPOS, QQ) == expected
    assert expected == [(x * z - y * z + y) - (x * z + x) + (y * z + y)]


def test_membership_with_monomials_outside_every_column():
    x, y, z = (MPoly.var(UNI, F7, v) for v in "xyz")
    gens = [x * y + z, y * y]
    member = gens[0] * x + gens[1].scale(3)
    assert _la_membership(member, gens, 3) and dense_la_membership(member, gens, 3)
    stray = member + z ** 5
    assert not _la_membership(stray, gens, 3) and not dense_la_membership(stray, gens, 3)
    # a bound below every generator's degree leaves no columns at all
    assert not _la_membership(x, gens, 1) and not dense_la_membership(x, gens, 1)


# ---------------------------------------------------------------------------
# the kernel itself: pivot set, relations and membership


def dense_leading_monomials(vectors, dom):
    """The leading monomials (largest exponent tuple) of the span of
    ``vectors``, by forward elimination on rows with the monomials as
    columns in descending order; their number is the rank."""
    monos = sorted({m for v in vectors for m in v.terms}, reverse=True)
    rows = [[v.terms.get(m, dom.zero) for m in monos] for v in vectors]
    leads = []
    for c, m in enumerate(monos):
        r = len(leads)
        sel = next((i for i in range(r, len(rows)) if not dom.is_zero(rows[i][c])), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = dom.inv(rows[r][c])
        for i in range(r + 1, len(rows)):
            if not dom.is_zero(rows[i][c]):
                f = dom.mul(rows[i][c], inv)
                rows[i] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        leads.append(m)
    return leads


def dense_relations(vectors, dom, limit):
    """For the first ``limit`` vectors in the span of the ones before them,
    the relation with coefficient one on that vector and support on the
    earlier independent vectors, solved by Gauss-Jordan on the matrix
    whose columns are the earlier independent vectors and that vector."""
    out, basis = [], []
    rank = 0
    for k, v in enumerate(vectors):
        new_rank = len(dense_leading_monomials([vectors[j] for j in basis] + [v], dom))
        if new_rank > rank:
            basis.append(k)
            rank = new_rank
            continue
        monos = sorted({m for j in basis for m in vectors[j].terms} | set(v.terms))
        rows = [
            [vectors[j].terms.get(m, dom.zero) for j in basis] + [dom.neg(v.terms.get(m, dom.zero))]
            for m in monos
        ]
        pivot_row = {}
        for c in range(len(basis)):
            r = len(pivot_row)
            sel = next(i for i in range(r, len(rows)) if not dom.is_zero(rows[i][c]))
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = dom.inv(rows[r][c])
            rows[r] = [dom.mul(inv, a) for a in rows[r]]
            for i in range(len(rows)):
                if i != r and not dom.is_zero(rows[i][c]):
                    f = rows[i][c]
                    rows[i] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(rows[i], rows[r])]
            pivot_row[c] = r
        relation = {
            basis[c]: rows[r][-1] for c, r in pivot_row.items() if not dom.is_zero(rows[r][-1])
        }
        relation[k] = dom.one
        out.append(relation)
        if len(out) == limit:
            break
    return out


@st.composite
def vector_case(draw):
    """A few polynomials over GF(7), GF(32003) or QQ, some of them replaced
    by combinations of the others, so that relations occur."""
    dom = draw(st.sampled_from(DOMAINS))
    mono = st.tuples(*[st.integers(0, 2)] * 3)
    poly = st.dictionaries(mono, coefficient(dom), max_size=4).map(lambda t: MPoly(UNI, dom, t))
    vectors = draw(st.lists(poly, min_size=1, max_size=8))
    pick = st.lists(st.tuples(st.integers(0, 7), coefficient(dom)), max_size=3)
    for k, picks in draw(st.lists(st.tuples(st.integers(0, 7), pick), max_size=3)):
        combo = MPoly.zero(UNI, dom)
        for j, lam in picks:
            combo = combo + vectors[j % len(vectors)].scale(lam)
        vectors[k % len(vectors)] = combo
    return dom, vectors, draw(st.integers(1, 4))


X, Y = (MPoly.var(UNI, QQ, v) for v in "xy")


# x - y reduces to -2y with combination (-1, 1): the content of a
# fraction-free row is taken over its combination too
@example(case=(QQ, [X + Y, X - Y, X], 1))
@given(vector_case())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dense_gauss_jordan(case):
    dom, vectors, limit = case
    # rank: the pivots are the leading monomials of the span
    pk = _packing(3, 1)
    ech = _Echelon(dom)
    for v in vectors:
        ech.insert(dict(ech.row(v, pk.pack)[0]))
    assert sorted(map(pk.unpack, ech.pivots)) == sorted(dense_leading_monomials(vectors, dom))
    # tracked combinations: one on the dependent vector, exact field values
    relations = linear_relations(vectors, limit)
    assert relations == dense_relations(vectors, dom, limit)
    for relation in relations:
        assert not sum((vectors[j].scale(lam) for j, lam in relation.items()), MPoly.zero(UNI, dom))
        if dom is QQ:
            assert all(type(lam) is Fraction for lam in relation.values())
    # membership: the last vector against the products of the others
    f, gens = vectors[-1], vectors[:-1]
    assert span_member(f, gens, limit - 1) == dense_la_membership(f, gens, limit - 1)


def test_exponents_past_one_byte_widen_the_packing(monkeypatch):
    widths = []

    def spy(nvars, width):
        widths.append(width)
        return _packing(nvars, width)

    monkeypatch.setattr(polyring, "_packing", spy)
    uni = VarUniverse(("x",))
    x7, xq = MPoly.var(uni, F7, "x"), MPoly.var(uni, QQ, "x")
    g7 = x7 * x7 + MPoly.const(uni, F7, 1)
    # x^100 = (x^2)^50 = 1 modulo x^2 + 1; f fits one byte, the products
    # x^q g up to degree 200 do not
    assert _la_membership(x7 ** 100 - MPoly.const(uni, F7, 1), [g7], 200)
    assert widths == [1, 2]
    assert not _la_membership(x7 ** 100 + MPoly.const(uni, F7, 1), [g7], 200)
    assert _la_membership(x7 ** 200 - MPoly.const(uni, F7, 1), [g7], 200)
    assert not _la_membership(x7 ** 200, [g7], 200)
    assert not _la_membership(x7 ** 200 - MPoly.const(uni, F7, 1), [g7], 199)
    # over Q, x^2 = 1/2 gives x^200 = 2^-100: the fraction-free rows carry it
    gq = xq * xq - MPoly.const(uni, QQ, Fraction(1, 2))
    assert _la_membership(xq ** 200 - MPoly.const(uni, QQ, Fraction(1, 2 ** 100)), [gq], 200)
    assert not _la_membership(xq ** 200 - MPoly.const(uni, QQ, Fraction(1, 2 ** 99)), [gq], 200)
    # a relation among vectors past the bound
    vectors = [xq ** 200, xq ** 150 + xq, xq.scale(3), (xq ** 150).scale(2)]
    assert linear_relations(vectors, 5) == [{1: Fraction(-2), 2: Fraction(2, 3), 3: Fraction(1)}]


def test_the_kernel_rejects_a_pi_ring():
    uni = VarUniverse(("x", "pi"))
    ring = PiRing(F7)
    x = MPoly.var(uni, ring, "x")
    with pytest.raises(DomainError, match="GF\\(p\\) or Q"):
        _la_membership(x * x, [x], 2)
    with pytest.raises(DomainError, match="GF\\(p\\) or Q"):
        linear_relations([x, x], 1)


# ---------------------------------------------------------------------------
# the determinant


def leibniz_det(matrix, dom):
    n = len(matrix)
    out = dom.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = dom.one
        for row, col in enumerate(perm):
            term = dom.mul(term, matrix[row][col])
        out = dom.sub(out, term) if inversions % 2 else dom.add(out, term)
    return out


R7 = PiRing(F7)


def element(dom):
    if dom is R7:
        return st.lists(st.integers(0, 6), max_size=3).map(R7.element)
    if dom is QQ:
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return st.integers(0, 6)


@st.composite
def square_matrix(draw):
    dom = draw(st.sampled_from([F7, QQ, R7]))
    n = draw(st.integers(1, 4))
    entry = element(dom)
    return dom, [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(square_matrix())
@settings(max_examples=200, deadline=None)
def test_det_matches_the_leibniz_formula(case):
    dom, matrix = case
    assert _det(matrix, dom) == leibniz_det(matrix, dom)


def pi_coefficients(p, ring):
    """A polynomial in pi alone as a pi-ring element."""
    pi_pos = p.universe.index("pi")
    coeffs = [ring.base.zero] * (1 + max((m[pi_pos] for m in p.terms), default=0))
    for m, c in p.terms.items():
        assert all(e == 0 for k, e in enumerate(m) if k != pi_pos)
        coeffs[m[pi_pos]] = c
    return ring.element(coeffs)


PI_DEPENDENT = LatticeConfig.from_dict(
    {
        "d": 3,
        "n": 1,
        "n_vec": [1, 3],
        "field": {"Fp": 32003},
        "entries": [
            [["1 + pi", "2", "pi^2"], ["0", "3 + 5*pi^2", "1"], ["pi", "4", "1 + 2*pi"]],
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        ],
    }
)


@pytest.mark.parametrize(
    "config",
    [
        random_config(2, 1, (1,), GF(32003), seed=1),
        random_config(3, 2, (1, 2), GF(32003), seed=3),
        random_config(3, 1, (1, 64), GF(32003), seed=1),
        random_config(4, 3, (1, 3, 7), GF(32003), seed=2),
        random_config(3, 1, (1, 2), QQ, seed=5),
        PI_DEPENDENT,
    ],
    ids=["d2", "d3", "d3-n_vec-1-64", "d4", "d3-QQ", "d3-pi-entries"],
)
def test_adjugate_times_g_is_det_times_identity(config):
    ring = config.pi_ring
    exps = (0,) + config.n_vec
    uni = config.universe()
    d = config.d
    for j in range(config.n + 1):
        g = [[ring.shift(config.entries[j][r][i], exps[i]) for i in range(d)] for r in range(d)]
        adj = [[pi_coefficients(e, ring) for e in row] for row in _adjugate(config, j, uni)]
        det = _det(g, ring)
        assert det
        for i in range(d):
            for k in range(d):
                acc = ring.zero
                for l in range(d):
                    acc = ring.add(acc, ring.mul(adj[i][l], g[l][k]))
                assert acc == (det if i == k else ring.zero)
