"""Property tests of the family protocol (tiled truncations, the codec) and
of the power table and certificates over random chain and traffic gains."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgain import (CannotCertifyError, CounterexampleGain, CounterexampleSlow,
                   DerivationError, LinearChain, LureBanded, NetworkGenerator,
                   Traffic, build_certificate, build_gain_operator,
                   generator_from_dict, generator_to_dict,
                   operator_power_column_sums, spectral_bracket, truncate,
                   verify_certificate)
from sgain.seqrules import PeriodicSeq


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


def dense_reference(fam, n):
    """Linear and input matrices written index by index from ``fam.blocks``."""
    blocks = [fam.blocks(i) for i in range(1, n + 1)]
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
    net = truncate(NetworkGenerator(family=fam), n)
    a_ref, b_ref, input_dims = dense_reference(fam, n)
    for mat, ref in ((net.linear_matrix, a_ref), (net.input_matrix, b_ref)):
        assert mat.shape == ref.shape
        assert np.array_equal(mat.toarray(), ref)
        assert mat.nnz == np.count_nonzero(ref)  # no explicit zeros
        assert mat.has_sorted_indices
    assert list(net.input_dims) == input_dims
    assert net.dim == a_ref.shape[0] and net.input_dim == sum(input_dims)


@settings(max_examples=150, deadline=None)
@given(fam=families, p=fractions(1, 3), q=fractions(1, 3))
def test_codec_round_trip(fam, p, q):
    gen = NetworkGenerator(family=fam, p=p, q=q)
    assert generator_from_dict(generator_to_dict(gen)) == gen
    text = json.dumps(generator_to_dict(gen))
    assert generator_from_dict(json.loads(text, parse_float=Fraction)) == gen


@settings(max_examples=60, deadline=None)
@given(fam=st.one_of(chains, traffics), eps=fractions("1/12", "1/4"))
def test_power_table_and_certificate(fam, eps):
    gen = NetworkGenerator(family=fam)
    try:
        g = fam.derive_gains(gen, {"eps": eps, "delta": eps})
    except DerivationError:
        return
    op = build_gain_operator(g)
    m, k_max = op.bandwidth, 5
    table = operator_power_column_sums(op, k_max)
    n = op.preamble_len + 2 * k_max * m + op.period
    dense, power = op.truncation(n), np.eye(n)
    for k in range(1, k_max + 1):
        power = power @ dense
        horizon = op.preamble_len + k * m + op.period
        assert float(table[k]) == pytest.approx(power[:, :horizon].sum(axis=0).max(), rel=1e-12)

    # certify's path for bounded rates, with a short Perron iteration: the
    # lower bound plays no part in the certificate.
    bracket = spectral_bracket(op, k_max=4, n_max=16, max_iters=2000)
    if not bracket.satisfied:
        return
    try:
        cert = build_certificate(g, bracket, terms=8)
    except CannotCertifyError:
        return
    assert verify_certificate(cert, g).ok
    ev = cert.eta
    tol = 0 if isinstance(ev.lam_shift, Fraction) else 1e-12
    for i in range(1, ev.checked_len - m):
        theta_eta = sum(op.rows.row(j).get(i - j, 0) * ev.eta.at(j)
                        for j in range(max(1, i - m), i + m + 1))
        bound = ev.lam_shift * ev.eta.at(i)
        assert theta_eta <= bound + tol * abs(bound)
