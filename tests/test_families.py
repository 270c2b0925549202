"""Property tests of the family protocol (exact blocks, tiled truncations, the
description reader), of
the eventually periodic gain operator, and of the power table and
certificates over random chain and traffic gains."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sgain import (CannotCertifyError, CounterexampleGain, CounterexampleSlow,
                   SmallGainViolatedError,
                   DerivationError, LinearChain, LureBanded, ParameterError,
                   Traffic, build_certificate, build_gain_operator, certify,
                   generator_from_dict, make_scenario, neumann_eta,
                   operator_power_column_sums, spectral_bracket, truncate,
                   verify_certificate)
from sgain.gains import _collatz_wielandt, _perron_vector, adjoint_apply
from sgain.families import round_blocks
from sgain.seqrules import PeriodicRows, PeriodicSeq, exact_div, joint, positions
from test_sim import _propagator


def fractions(lo, hi):
    return st.fractions(min_value=Fraction(lo), max_value=Fraction(hi), max_denominator=12)


def rules(values):
    """Eventually periodic rules with a preamble of 0-3 and a cycle of 1-4 values."""
    return st.builds(PeriodicSeq, st.lists(values, max_size=3).map(tuple),
                     st.lists(values, min_size=1, max_size=4).map(tuple))


chains = st.builds(LinearChain, diag=rules(fractions("1/10", 3)),
                   sub=rules(st.one_of(st.just(Fraction(0)), fractions(-1, 1))),
                   sup=rules(st.one_of(st.just(Fraction(0)), fractions(-1, 1))))

traffics = st.builds(Traffic, v=rules(fractions("1/4", 2)), l=rules(fractions("1/2", 2)),
                     c=fractions("1/12", "5/12"), e=fractions("1/12", "11/12"),
                     r=fractions("1/10", 3))

_ENTRIES = st.sampled_from([0.0, 0.0, 0.5, -1.25, 2.0, 0.1])


def matrices(rows, cols):
    return st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


@st.composite
def lures(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    return LureBanded(a=draw(matrices(n, n)), e=draw(matrices(n, 1)), g=draw(matrices(1, n)),
                      b=draw(matrices(n, m)), d_left=draw(matrices(n, n)),
                      d_right=draw(matrices(n, n)),
                      sector_l=draw(st.sampled_from([-1, Fraction(-1, 2), 0])),
                      sector_r=draw(st.sampled_from([Fraction(1, 2), 1, 2])),
                      phi=draw(st.sampled_from(["zero", "midpoint-linear", "saturation"])))


families = st.one_of(chains, traffics, lures(),
                     st.sampled_from([CounterexampleSlow(), CounterexampleGain()]))


@settings(max_examples=150, deadline=None)
@given(s=rules(fractions(-3, 3)), pre=st.integers(0, 5), per=st.integers(1, 6),
       n=st.integers(0, 60))
def test_tabulate_joint_and_positions_agree_with_at(s, pre, per, n):
    """A table tabulated over a joint structure holds the entries of ``s``, and
    ``positions`` finds entry i where the table stores it."""
    p, q = joint(pre, per, s)
    assert p == max(pre, s.preamble_len) and q == math.lcm(per, s.period)
    assert p >= pre and q % per == 0 and p >= s.preamble_len and q % s.period == 0
    table = PeriodicSeq.tabulate(s.at, p, q)
    assert (table.preamble_len, table.period) == (p, q)
    stored = table.values()
    for i, pos in enumerate(positions(p, q, n), start=1):
        assert table.at(i) == stored[pos] == s.at(i)
        assert type(stored[pos]) is type(s.at(i))


def dense_reference(fam, n):
    """Drift and input matrices written index by index from ``fam.blocks``."""
    blocks = [round_blocks(fam.blocks(i)) for i in range(1, n + 1)]
    nb, m = blocks[0][0].shape[0], blocks[0][2].shape[1]
    input_dims = [m if np.any(b) else 0 for _, _, b in blocks]
    in_off = np.concatenate(([0], np.cumsum(input_dims)))
    a_ref = np.zeros((n * nb, n * nb))
    b_ref = np.zeros((n * nb, max(int(in_off[-1]), 1)))
    for i, (a, d, b) in enumerate(blocks, start=1):
        r = (i - 1) * nb
        a_ref[r:r + nb, r:r + nb] = a
        for off, dm in d.items():
            if 1 <= i + off <= n:
                a_ref[r:r + nb, (i + off - 1) * nb:(i + off) * nb] = dm
        b_ref[r:r + nb, in_off[i - 1]:in_off[i]] = b[:, :input_dims[i - 1]]
    return a_ref, b_ref, input_dims


@settings(max_examples=150, deadline=None)
@given(fam=families, n=st.integers(1, 40))
def test_tiled_assembly_matches_dense_reference(fam, n):
    net = truncate(fam, n)
    a_ref, b_ref, input_dims = dense_reference(fam, n)
    for mat, ref in ((net.drift_matrix, a_ref), (net.input_matrix, b_ref)):
        assert mat.shape == ref.shape
        assert np.array_equal(mat.toarray(), ref)
        assert mat.nnz == np.count_nonzero(ref)  # no explicit zeros
        assert mat.has_sorted_indices
    assert list(net.input_dims) == input_dims
    assert net.dim == a_ref.shape[0] and net.input_dim == sum(input_dims)


@settings(max_examples=100, deadline=None)
@given(fam=families, n=st.integers(1, 300), h=st.sampled_from([1e-3, 0.05]))
def test_assembly_equals_the_operator_algebra_bit_for_bit(fam, n, h):
    """The gathered ``drift_matrix`` and the tiled propagator hold the arrays of
    scipy's own assembly and operator expression: the same entries, each row in
    the same order, which fixes ``csr_matvec``'s summation order."""
    net = truncate(fam, n)
    a, ref = net.drift_matrix, _propagator(net, h)[1]
    *r, lower = net.propagator(h)
    for got, want in (((a.indptr, a.indices, a.data), sp.csr_matrix(dense_reference(fam, n)[0])),
                      (r, ref)):
        assert np.array_equal(got[0], want.indptr) and np.array_equal(got[1], want.indices)
        assert np.array_equal(got[2].view(np.int64), want.data.view(np.int64))
    assert lower == np.max(np.arange(net.dim).repeat(np.diff(ref.indptr)) - ref.indices, initial=0)


@settings(max_examples=150, deadline=None)
@given(fam=st.one_of(chains, traffics), data=st.data())
def test_blocks_are_exact_and_round_once(fam, data):
    """A chain or traffic block holds the description's own numbers, ints and
    Fractions, and so does the instance's block table at the block's position;
    the float table the truncations read rounds each one once: it equals
    ``float(entry)`` bit for bit.  Each table is formed once per instance."""
    pre, per = fam.structure
    i = data.draw(st.integers(1, pre + 2 * per), label="i")
    (a, d, b), (ta, td, tb) = fam.blocks(i), fam.block_table.at(i)
    fa, fd, fb = fam.float_table.at(i)
    assert d.keys() == td.keys() == fd.keys()
    for x, t, f in zip((a, *d.values(), b), (ta, *td.values(), tb), (fa, *fd.values(), fb)):
        assert type(x) in (int, Fraction) and type(t) is type(x) and t == x
        assert f.shape == (1, 1) and f.tobytes() == np.float64(float(x)).tobytes()
    assert fam.block_table is fam.block_table and fam.float_table is fam.float_table


def literals(lo, hi):
    """``(literal, value)`` of a description number in ``[lo, hi]``: an int, a
    ``"p/q"`` string, a decimal string or a dyadic float."""
    return fractions(lo, hi).flatmap(lambda v: st.sampled_from(
        [(f"{v.numerator}/{v.denominator}", v), (str(float(v)), Fraction(str(float(v))))]
        + ([(v.numerator, v.numerator)] if v.denominator == 1 else [])
        + ([(float(v), float(v))] if v.denominator & (v.denominator - 1) == 0 else [])))


def literal_rules(lo, hi):
    """``(literal, (preamble, cycle))`` of a rule: a bare number or a
    ``{"preamble", "cycle"}`` object, with the values it reads."""
    bare = literals(lo, hi).map(lambda x: (x[0], ((), (x[1],))))
    obj = st.tuples(st.lists(literals(lo, hi), max_size=3),
                    st.lists(literals(lo, hi), min_size=1, max_size=4)).map(
        lambda pc: ({"preamble": [x for x, _ in pc[0]], "cycle": [x for x, _ in pc[1]]},
                    (tuple(v for _, v in pc[0]), tuple(v for _, v in pc[1]))))
    return st.one_of(bare, obj)


_LITERAL_FAMILIES = {
    "linear-chain": {"diag": literal_rules("1/10", 3), "sub": literal_rules(-1, 1),
                     "sup": literal_rules(-1, 1)},
    "traffic": {"v": literal_rules("1/4", 2), "l": literal_rules("1/2", 2),
                "c": literals("1/12", "5/12"), "e": literals("1/12", "11/12"),
                "r": literals("1/10", 3)}}

descriptions = st.sampled_from(sorted(_LITERAL_FAMILIES)).flatmap(
    lambda name: st.fixed_dictionaries(_LITERAL_FAMILIES[name]).map(lambda drawn: (
        {"family": name, "coefficients": {k: x[0] for k, x in drawn.items()}},
        {k: value for k, (_, value) in drawn.items()})))


@settings(max_examples=150, deadline=None)
@given(description=descriptions)
def test_reader_reads_literal_descriptions(description):
    """The family read from a literal description reads the drawn values: each
    rule at ``1..pre + 2 per``, each constant as drawn, compared exactly."""
    obj, drawn = description
    fam = generator_from_dict(obj)
    for key, want in drawn.items():
        if not isinstance(want, tuple):
            assert getattr(fam, key) == want
            continue
        pre, cycle = want
        for i in range(1, len(pre) + 2 * len(cycle) + 1):
            expected = pre[i - 1] if i <= len(pre) else cycle[(i - len(pre) - 1) % len(cycle)]
            got = getattr(fam, key).at(i)
            assert got == expected and type(got) is type(expected)


@settings(max_examples=60, deadline=None)
@given(description=descriptions, p=fractions(1, 3), q=fractions(1, 3))
def test_codec_rejects_exponents_other_than_two(description, p, q):
    obj = {**description[0], "p": str(p), "q": str(q)}
    if p == q == 2:
        assert generator_from_dict(obj) == generator_from_dict(description[0])
    else:
        with pytest.raises(ParameterError, match=f"p = q = 2; the generator declares "
                                                 f"p = {p}, q = {q}$"):
            generator_from_dict(obj)


@settings(max_examples=60, deadline=None)
@given(fam=st.one_of(chains, traffics), eps=fractions("1/12", "1/4"))
def test_power_table_and_certificate(fam, eps):
    try:
        g = fam.derive_gains(dict.fromkeys(fam.DERIVATION, eps))
    except DerivationError:
        return
    op = build_gain_operator(g)
    m, k_max = op.bandwidth, 5
    table = operator_power_column_sums(op, k_max)
    n = op.preamble_len + 2 * k_max * m + op.period
    dense, w = op.section(n), np.array([float(x) for x in table.start.head(n)])
    for k in range(1, k_max + 1):
        w_k = np.linalg.matrix_power(dense, k).T @ w  # Theta^k w on the section
        horizon = op.preamble_len + k * m + op.period
        assert float(table.norms[k]) == pytest.approx((w_k / w)[:horizon].max(), rel=1e-12)

    bracket = spectral_bracket(op, k_max=4)
    symbol_radius = np.abs(np.linalg.eigvals(np.array(op.symbol(), dtype=float))).max()
    assert bracket.lower <= bracket.upper
    assert isinstance(bracket.lower, Fraction)
    assert bracket.lower >= 0.999 * symbol_radius
    if not bracket.satisfied:
        return
    try:
        cert = build_certificate(g, bracket)
    except CannotCertifyError:
        return
    assert verify_certificate(cert, g).ok
    shift = cert.r_tilde
    ev = neumann_eta(bracket.table, shift)  # the series behind the certificate's mu
    tol = 0 if isinstance(shift, Fraction) else 1e-12
    for i in range(1, ev.eta.preamble_len + 2 * ev.eta.period - m):
        theta_eta = sum(op.row(j).get(i - j, 0) * ev.eta.at(j)
                        for j in range(max(1, i - m), i + m + 1))
        bound = shift * ev.eta.at(i)
        assert theta_eta <= bound + tol * abs(bound)


@settings(max_examples=60, deadline=None)
@given(fam=st.one_of(chains, traffics), eps=fractions("1/12", "1/4"))
def test_certify_verdicts(fam, eps):
    """lower <= upper, and a dense eigensolve of a 64-row section stays under
    upper; an emitted certificate passes its scan, with zero tolerance when
    it is exact, and a network with lower >= 1 gets none."""
    try:
        g = fam.derive_gains(dict.fromkeys(fam.DERIVATION, eps))
    except DerivationError:
        return
    try:
        cert = certify(g)[0]
        bracket = cert.bracket
    except SmallGainViolatedError as exc:
        bracket, cert = exc.bracket, None
    op = build_gain_operator(g)
    assert bracket.lower <= bracket.upper
    radius = np.abs(np.linalg.eigvals(op.section(64))).max()
    assert radius <= float(bracket.upper) * (1 + 1e-9) + 1e-12
    if cert is None:
        return
    assert bracket.lower < 1
    rep = verify_certificate(cert, g)
    assert rep.ok and rep == cert.scan
    if isinstance(cert.r_tilde, Fraction):
        assert rep.tol == 0


@functools.cache
def platoon_gains():
    s = make_scenario("lure-platoon")
    return s.family.derive_gains(s.derivation)


@st.composite
def gain_data(draw):
    """Gains of a random chain or traffic network, with Young splits small
    enough that every decay rate stays positive (a float split makes the
    gains float), or the float gains of the shipped Lur'e platoon."""
    kind = draw(st.sampled_from(["chain", "traffic", "lure"]))
    if kind == "lure":
        return platoon_gains()
    fam = draw(chains if kind == "chain" else traffics)
    room = fam.diag.min() if kind == "chain" else fam.v.min() / fam.l.max()
    eps = draw(fractions("1/4", 1)) * room / 4
    if draw(st.booleans()):
        eps = float(eps)
    return fam.derive_gains(dict.fromkeys(fam.DERIVATION, eps))


@st.composite
def banded_rows(draw):
    """Float rows with up to two entries per side of the diagonal, so a
    column sum has enough terms for its order to show in the last bits."""
    m, pre, per = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    rows = [{off: draw(st.floats(0.01, 0.3)) for off in range(-m, m + 1)
             if off and i + off >= 1 and draw(st.booleans())}
            for i in range(1, pre + per + 1)]
    return PeriodicRows(tuple(rows[:pre]), tuple(rows[pre:]), m)


operators = st.one_of(gain_data().map(build_gain_operator), banded_rows())


def window_theta(psi, v, out_len):
    """Theta v on a leading window of the list v, each column of Psi rebuilt
    entry by entry in ascending row order."""
    m, out = psi.bandwidth, []
    for i in range(1, out_len + 1):
        acc = 0
        for j in range(max(1, i - m), i + m + 1):
            w = psi.row(j).get(i - j)
            if w:
                acc += w * v[j - 1]
        out.append(acc)
    return out


def window_power_norms(psi, k_max, start):
    """``||Theta^k||_w = max_j (Theta^k w)_j / w_j`` from windows that shrink
    by the bandwidth per power, w the start vector."""
    m, pre, per = psi.bandwidth, psi.preamble_len, psi.period
    w = start.head(pre + 2 * k_max * m + per)
    v, norms = w, [exact_div(1, 1)]
    for k in range(1, k_max + 1):
        v = window_theta(psi, v, len(v) - m)
        norms.append(max(exact_div(x, y) for x, y in zip(v[:pre + k * m + per], w)))
    return norms


def window_eta(psi, shift, k_last, start):
    """The series entries 1 to preamble + 2 periods, on a window."""
    m = psi.bandwidth
    checked = psi.preamble_len + k_last * m + 2 * psi.period
    inv = exact_div(1, shift)
    v, coef = start.head(checked + k_last * m), exact_div(inv, max(start.values()))
    eta = [coef * x for x in v[:checked]]
    for _ in range(k_last):
        v = window_theta(psi, v, len(v) - m)
        coef = coef * inv
        for i in range(checked):
            eta[i] += coef * v[i]
    return eta


def bits(values):
    return [(type(x).__name__, repr(x)) for x in values]


def reference_perron(a):
    """The Perron vector of ``a`` scaled to max 1, rounded entry by entry to
    one Fraction each."""
    vals, vecs = np.linalg.eig(a)
    x = np.abs(vecs[:, np.argmax(np.abs(vals))])
    return [Fraction(t).limit_denominator(10 ** 12) if t >= 1e-12 else Fraction(0)
            for t in (x / x.max()).tolist()]


def reference_lower_bounds(psi):
    """The symbol and section Collatz-Wielandt bounds ``min (Theta x)_j / x_j``
    from Fraction Perron vectors: the symbol's over Theta's cycle rows, the
    section's on a window of columns rebuilt entry by entry."""
    m, per, theta = psi.bandwidth, psi.period, psi.transpose()
    cycle = theta.head(theta.preamble_len + per)[theta.preamble_len:]  # values, not numerators
    x = reference_perron(np.array(psi.symbol(), dtype=float).T)
    symbol = min(sum(v * x[(m + r + o) % per] for o, v in row.items()) / x[(m + r) % per]
                 for r, row in enumerate(cycle) if x[(m + r) % per])
    n = min(psi.preamble_len + 2 * per, 64)
    v = reference_perron(psi.section(n).T)
    section = min(a / b for a, b in zip(window_theta(psi, v + [0] * m, n), v) if b)
    return symbol, section


@settings(max_examples=60, deadline=None)
@given(psi=operators)
def test_lower_bounds_match_fraction_reference(psi):
    """Rational gains give each bound as one Fraction from int numerators,
    float gains the same floats: type and bits equal the reference's."""
    symbol, section = reference_lower_bounds(psi)
    rows, d = psi.transpose().integer_form
    m, per, n = psi.bandwidth, psi.period, min(psi.preamble_len + 2 * psi.period, 64)

    def exact(p, q):  # the Perron vector as the bound reads it
        return [Fraction(t, q) for t in p] if d is None else p

    x = exact(*_perron_vector(np.array(psi.symbol(), dtype=float).T))
    v = exact(*_perron_vector(psi.section(n).T))
    got = (_collatz_wielandt(enumerate(rows.cycle, m), lambda j: x[j % per], d),
           _collatz_wielandt(enumerate(rows.head(n)), lambda j: v[j] if j < n else 0, d))
    assert bits(got) == bits([symbol, section])
    bracket = spectral_bracket(psi, k_max=2)
    lower, lower_from = (symbol, "symbol") if symbol >= section else (section, "section")
    assert bits([bracket.lower]) == bits([lower]) and bracket.lower_from == lower_from


def test_section_bound_from_a_heavy_preamble():
    """Preamble couplings nine times the cycle's give an isolated eigenvalue
    that only the leading section sees: the lower bound is the section's,
    an exact Fraction."""
    heavy, light = Fraction(9, 10), Fraction(1, 10)
    fam = LinearChain(diag=PeriodicSeq.constant(1),
                      sub=PeriodicSeq((Fraction(0), heavy, heavy), (light,)),
                      sup=PeriodicSeq((heavy, heavy, heavy), (light,)))
    psi = build_gain_operator(fam.derive_gains({}))
    assert psi.transpose().integer_form[1] > 1
    symbol, section = reference_lower_bounds(psi)
    bracket = spectral_bracket(psi)
    assert bracket.lower_from == "section" and section > symbol
    assert type(bracket.lower) is Fraction and bracket.lower == section
    assert bracket.lower <= bracket.upper


@settings(max_examples=60, deadline=None)
@given(psi=operators, v=rules(fractions(0, 3)))
def test_adjoint_apply_matches_dense_section(psi, v):
    m = psi.bandwidth
    t = adjoint_apply(psi.transpose(), v)
    assert t.preamble_len == max(v.preamble_len, psi.preamble_len) + m
    assert t.period == math.lcm(v.period, psi.period)
    n = t.preamble_len + 2 * t.period + m
    dense = psi.section(n).T @ np.array([float(x) for x in v.head(n)])
    for i in range(1, n - m + 1):  # entries the section determines
        assert float(t.at(i)) == pytest.approx(dense[i - 1], rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(psi=operators)
def test_transpose_twice_gives_the_rows_back(psi):
    back = psi.transpose().transpose()
    assert (back.bandwidth, back.period) == (psi.bandwidth, psi.period)
    m, pre, per = psi.bandwidth, psi.preamble_len, psi.period
    for i in range(1, pre + 2 * m + 2 * per + 1):
        assert back.row(i) == {off: w for off, w in psi.row(i).items() if w}


@settings(max_examples=40, deadline=None)
@given(psi=operators)
def test_power_table_and_eta_match_window_reference(psi):
    table = operator_power_column_sums(psi, 5)
    assert bits(table.norms) == bits(window_power_norms(psi, 5, table.start))
    bracket = spectral_bracket(psi, k_max=4)
    if not bracket.satisfied:
        return
    shift = bracket.upper + (1 - bracket.upper) / 10
    ev = neumann_eta(bracket.table, shift)
    eta = [ev.eta.at(i) for i in range(1, ev.eta.preamble_len + 2 * ev.eta.period + 1)]
    assert bits(eta) == bits(window_eta(psi, shift, ev.terms_used, bracket.table.start))


@pytest.mark.parametrize("name, shift_type", [("traffic", float), ("chain-a", Fraction)])
def test_shipped_series_matches_window_reference(name, shift_type):
    """Shipped operators with rational entries over a common denominator
    d > 1, with the shift at the upper bound (the longest series the table
    allows) and above it: the integer-numerator iterates give the same
    power table and the same eta, type and bits, as the per-entry Fraction
    reference."""
    s = make_scenario(name)
    psi = build_gain_operator(s.family.derive_gains(s.derivation))
    assert psi.transpose().integer_form[1] > 1
    bracket = spectral_bracket(psi)
    start = bracket.table.start
    assert bits(bracket.table.norms) == bits(window_power_norms(psi, 12, start))
    for shift in (bracket.upper, bracket.upper + (1 - bracket.upper) / 10):
        assert type(shift) is shift_type
        ev = neumann_eta(bracket.table, shift)
        eta = [ev.eta.at(i) for i in range(1, ev.eta.preamble_len + 2 * ev.eta.period + 1)]
        assert bits(eta) == bits(window_eta(psi, shift, ev.terms_used, start))


def test_integer_form():
    s = make_scenario("chain-a")
    psi = build_gain_operator(s.family.derive_gains(s.derivation))
    rows, d = psi.integer_form
    values = psi.head(psi.preamble_len + psi.period)
    entries = [v for row in values for v in row.values()]
    assert d == math.lcm(*(v.denominator for v in entries)) > 1
    assert (rows.preamble_len, rows.period, rows.bandwidth) == (
        psi.preamble_len, psi.period, psi.bandwidth)
    for row, scaled in zip(values, rows.preamble + rows.cycle):
        assert scaled == {off: v * d for off, v in row.items()}
        assert all(type(v) is int for v in scaled.values())
    assert psi.integer_form is psi.integer_form  # formed once

    floats = build_gain_operator(platoon_gains())
    mixed = PeriodicRows(({1: Fraction(1, 3)},), ({-1: 0.25, 1: Fraction(1, 3)},), 1)
    whole = PeriodicRows(({1: Fraction(3)},), ({-1: Fraction(2), 1: Fraction(3)},), 1)
    for rows, d in ((floats, None), (mixed, None), (whole, 1)):
        assert rows.integer_form == (rows, d)
        assert (rows.integer_form[0] is rows) == (d is None)


@pytest.mark.parametrize("name", ["traffic", "chain-a"])
def test_adjoint_applications_per_certify(monkeypatch, name):
    """A bounded-rate certify applies an operator k_max + 1 times: k_max for
    the power table and one for the scan; the lower bounds read only the
    rows they test, and the series reads the table's iterates."""
    from sgain import certificate, gains
    s = make_scenario(name)
    g = s.family.derive_gains(s.derivation)
    calls = []
    real = gains.adjoint_apply
    for mod in (gains, certificate):
        monkeypatch.setattr(mod, "adjoint_apply", lambda *a: calls.append(1) or real(*a))
    for k_max in (12, 4, 1):
        calls.clear()
        certify(g, k_max=k_max)
        assert len(calls) == k_max + 1
