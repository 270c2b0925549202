"""Subsystem descriptions, traffic classification, truncation, and RHS."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import sgain
from sgain import (InvalidIndexError, LinearChain, LureBanded,
                   NumericInputError, ParameterError,
                   ShapeError, Traffic, classify_traffic_cell, evaluate_rhs,
                   truncate)
from sgain.network import _chained_steps, _matvec
from sgain.seqrules import PeriodicSeq


def chain_gen(b_diag=1, b_off="0.1"):
    return LinearChain.uniform(b_diag, b_off)


def traffic_gen():
    return sgain.make_scenario("traffic").family


def same_blocks(x, y):
    (a1, d1, b1), (a2, d2, b2) = x, y
    return (np.array_equal(a1, a2) and np.array_equal(b1, b2) and d1.keys() == d2.keys()
            and all(np.array_equal(d1[off], d2[off]) for off in d1))


class TestGenerateSpec:
    """Subsystem descriptions read off ``Family.blocks``."""

    def test_chain_first_node_has_no_left_neighbor(self):
        fam = chain_gen()
        assert fam.neighbors(1) == (2,)
        assert fam.coefficients(1)[1] == 0  # forced b_10 = 0
        assert -1 not in fam.blocks(1)[1]

    def test_chain_interior_node(self):
        fam = chain_gen()
        assert fam.neighbors(5) == (4, 6)
        assert fam.state_dim(5) == 1 and fam.input_dim(5) == 0

    def test_traffic_cell_11(self):
        assert traffic_gen().neighbors(11) == (7, 12)  # S9 cell: {i-4, i+1}

    def test_invalid_index(self):
        for name in sgain.SCENARIO_NAMES:
            fam = sgain.make_scenario(name).family
            for i in (0, -3):
                with pytest.raises(InvalidIndexError):
                    fam.blocks(i)
                with pytest.raises(InvalidIndexError):
                    fam.neighbors(i)

    def test_eventual_periodicity(self):
        chain, traffic = chain_gen(), traffic_gen()
        cases = ((chain, chain.coefficients),  # with the exact records
                 (traffic, lambda i: (traffic.cell(i), traffic.flow(i))),
                 (sgain.make_scenario("lure-platoon").family, lambda i: None))
        for fam, record in cases:
            pre, period = fam.structure
            for i in range(pre + 1, pre + 40):
                assert same_blocks(fam.blocks(i), fam.blocks(i + period))
                assert record(i) == record(i + period)
                assert tuple(j - i for j in fam.neighbors(i)) == \
                    tuple(j - i - period for j in fam.neighbors(i + period))
                assert fam.state_dim(i) == fam.state_dim(i + period)
                assert fam.input_dim(i) == fam.input_dim(i + period)

    def test_decoupled_chain_has_no_neighbors(self):
        assert chain_gen(b_off=0).neighbors(7) == ()


_TRAFFIC_BASES = {"S2": 4, "S3": 5, "S4": 6, "S5": 9, "S6": 2, "S7": 7, "S8": 8, "S9": 11}


def _traffic_index_sets(limit=10_100):
    sets = {"S1": {1, 3}}
    for name, base in _TRAFFIC_BASES.items():
        sets[name] = {base + 8 * k for k in range(limit // 8 + 2)}
    return sets


class TestTrafficClassification:
    # independent enumeration of the nine index sets, built once
    SETS = _traffic_index_sets()

    @classmethod
    def brute_force_class(cls, i):
        hits = [name for name, s in cls.SETS.items() if i in s]
        assert len(hits) == 1, f"index {i} in classes {hits}"
        return hits[0]

    def test_examples(self):
        assert classify_traffic_cell(4) == "S2"
        assert classify_traffic_cell(1) == "S1"
        assert classify_traffic_cell(19) == "S9"

    def test_partition_up_to_1e4(self):
        for i in range(1, 10_001):
            assert classify_traffic_cell(i) == self.brute_force_class(i)

    def test_class_table_structure(self):
        fam = traffic_gen()
        e, r = float(fam.e), float(fam.r)
        expected = {
            "S1": ((1,), 0.0, 0.0), "S2": ((4,), 0.0, r), "S3": ((-4,), 0.0, r / 2),
            "S4": ((-1, 4), 0.0, 0.0), "S5": ((-4, 1), e, 0.0),
            "S6": ((1, 4), 0.0, 0.0), "S7": ((-4, -1), 0.0, 0.0),
            "S8": ((-1, 4), 2 * e, 0.0), "S9": ((-4, 1), 0.0, 0.0)}
        for i in range(1, 10_001):
            name, e_i, d, b_i = fam.cell(i)
            offs, e_exp, b_exp = expected[name]
            assert tuple(sorted(d)) == tuple(sorted(offs))
            assert float(e_i) == e_exp and float(b_i) == b_exp


class TestTruncate:
    def test_single_subsystem_reads_zero_boundary(self):
        net = truncate(chain_gen(), 1)
        assert net.dim == 1
        dx = evaluate_rhs(net, np.array([1.0]), np.zeros(0))
        assert dx == pytest.approx([-1.0])  # coupling to x_2 reads zero

    def test_chain_truncation_is_tridiagonal(self):
        net = truncate(chain_gen(), 10)
        a = net.linear_matrix.toarray()
        assert a.shape == (10, 10)
        i, j = np.nonzero(a)
        assert np.all(np.abs(i - j) <= 1)
        assert np.allclose(np.diag(a), -1.0)

    def test_traffic_truncation_couples_12_to_16(self):
        net = truncate(traffic_gen(), 16)
        assert net.dim == 16
        a = net.linear_matrix.toarray()
        assert a[11, 15] != 0  # cell 12 is S2 and reads cell 16
        assert classify_traffic_cell(12) == "S2"

    def test_minimum_size(self):
        with pytest.raises(ParameterError):
            truncate(chain_gen(), 0)

    def test_couplings_beyond_bandwidth_are_rejected(self):
        class NarrowTraffic(Traffic):
            bandwidth = 3

        fam = traffic_gen()
        narrow = NarrowTraffic(v=fam.v, l=fam.l, c=fam.c, e=fam.e, r=fam.r)
        with pytest.raises(ParameterError, match="exceeds bandwidth 3"):
            truncate(narrow, 12)


class TestEvaluateRhs:
    def test_origin_is_equilibrium_everywhere(self):
        for name in sgain.SCENARIO_NAMES:
            gen = sgain.make_scenario(name).family
            net = truncate(gen, 12)
            dx = evaluate_rhs(net, np.zeros(net.dim), np.zeros(net.input_dim))
            assert np.all(dx == 0)

    def test_chain_hand_computed(self):
        net = truncate(chain_gen(), 3)
        dx = evaluate_rhs(net, np.array([1.0, 0.0, 0.0]), np.zeros(0))
        assert dx == pytest.approx([-1.0, 0.1, 0.0])

    def test_lure_with_inactive_nonlinearity_is_linear(self):
        gen = sgain.make_scenario("lure-platoon").family
        net = truncate(gen, 4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(net.dim)
        u = rng.standard_normal(net.input_dim)
        dx = evaluate_rhs(net, x, u)
        expected = net.linear_matrix @ x + net.input_matrix @ u
        assert dx == pytest.approx(expected)

    @pytest.mark.parametrize("phi", ["midpoint-linear", "saturation"])
    def test_active_sector_channel_matches_block_formula(self, phi):
        # A x + E phi(G x) + B u per block; midpoint-linear is folded into A.
        sector = {"E": [[0.0], [0.4]], "G": [[0.3, -0.2]], "sector": ["-0.5", "1.5"]}
        fam = sgain.make_scenario("lure-platoon",
                                  {"coefficients": {"phi": phi, **sector}}).family
        net = truncate(fam, 6)
        assert (net.nonlinearity is None) == (phi == "midpoint-linear")
        rng = np.random.default_rng(3)
        x = 10.0 * rng.standard_normal(net.dim)
        u = rng.standard_normal(net.input_dim)
        blocks = x.reshape(6, 2)
        e, g, b = (np.array(m, dtype=float) for m in (fam.e, fam.g, fam.b))
        a, dl, dr = (np.array(m, dtype=float) for m in (fam.a, fam.d_left, fam.d_right))
        padded = np.vstack([np.zeros(2), blocks, np.zeros(2)])
        expected = (blocks @ a.T + padded[:-2] @ dl.T + padded[2:] @ dr.T
                    + fam.phi_eval(blocks @ g.ravel())[:, None] * e.ravel()
                    + u[:, None] * b.ravel()).ravel()
        assert evaluate_rhs(net, x, u) == pytest.approx(expected, rel=1e-14, abs=1e-13)

    def test_banded_locality(self):
        gen = traffic_gen()
        net = truncate(gen, 30)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(net.dim)
        base = evaluate_rhs(net, x, np.zeros(net.input_dim))
        i = 10
        allowed = set(gen.neighbors(i)) | {i}
        for j in range(1, 31):
            if j in allowed:
                continue
            xp = x.copy()
            xp[j - 1] += 1.0
            out = evaluate_rhs(net, xp, np.zeros(net.input_dim))
            assert out[i - 1] == base[i - 1]

    def test_shape_and_numeric_errors(self):
        net = truncate(chain_gen(), 3)
        with pytest.raises(ShapeError):
            evaluate_rhs(net, np.zeros(4), np.zeros(0))
        bad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NumericInputError):
            evaluate_rhs(net, bad, np.zeros(0))


class TestChainedSteps:
    """``_chained_steps`` leans on scipy's kernel working in place, row by row."""

    @pytest.mark.parametrize("rows", [3, 2])  # the whole chain; one step per call
    def test_four_chained_steps_are_four_one_step_calls(self, rows):
        r = sp.csr_matrix(np.array([[1.5, -0.25, 0.0], [0.5, 0.75, 1e-3], [-2.0, 0.0, 1.25]]))
        rng = np.random.default_rng(11)
        blk = np.empty((5, 3))
        blk[0], blk[1:] = rng.standard_normal(3), rng.standard_normal((4, 3))
        ref = blk.copy()
        for j in range(4):
            _matvec(r, ref[j], ref[j + 1], rows)
        _chained_steps(r.indptr, r.indices, r.data, 4)(blk.ravel(), 4, rows)
        assert np.array_equal(blk.view(np.int64), ref.view(np.int64))


class TestSectorNonlinearities:
    @pytest.mark.parametrize("phi", ["saturation", "midpoint-linear", "zero"])
    def test_sector_inequality_sampled(self, phi):
        fam = LureBanded.platoon(1.0, 2.0, 0.1, sector=(-0.5, 2.0), phi=phi)
        s = np.linspace(-5, 5, 201)
        val = fam.phi_eval(s)
        sector = (val - 2.0 * s) * (val - (-0.5) * s)
        assert np.all(sector <= 1e-12)
        assert fam.phi_eval(np.zeros(1)) == pytest.approx([0.0])

    def test_zero_phi_requires_straddling_sector(self):
        with pytest.raises(ParameterError):
            LureBanded.platoon(1.0, 2.0, 0.1, sector=(0.5, 2.0), phi="zero")


class TestDescriptionFiles:
    def test_round_trip(self, tmp_path):
        for name in sgain.SCENARIO_NAMES:
            gen = sgain.make_scenario(name).family
            path = tmp_path / f"{name}.json"
            sgain.save_generator(gen, path)
            back = sgain.load_generator(path)
            assert back == gen

    @pytest.mark.parametrize("p, q", [(math.inf, 2), (2, math.inf), (math.inf, math.inf),
                                      (math.nan, 2)])
    def test_exponents_finite(self, p, q):
        obj = {**sgain.generator_to_dict(chain_gen()), "p": p, "q": q}
        with pytest.raises(ParameterError, match="not a finite number"):
            sgain.generator_from_dict(obj)

    @pytest.mark.parametrize("name", sgain.SCENARIO_NAMES)
    @pytest.mark.parametrize("p, q", [(3, 2), (2, 3), ("1/2", 2)])
    def test_non_quadratic_exponents_rejected(self, name, p, q):
        obj = {**sgain.generator_to_dict(sgain.make_scenario(name).family), "p": p, "q": q}
        with pytest.raises(ParameterError, match=r"provide gain data for p = q = 2; "
                                                 rf"the generator declares p = {p}, q = {q}$"):
            sgain.generator_from_dict(obj)

    def test_traffic_parameter_ranges(self):
        ones = PeriodicSeq.constant(1)
        with pytest.raises(ParameterError, match=r"c in \(0, 0.5\)"):
            Traffic(v=ones, l=ones, c=0.7, e=0.5, r=1)
        with pytest.raises(ParameterError, match=r"e in \(0, 1\)"):
            Traffic(v=ones, l=ones, c=0.1, e=1.5, r=1)
        with pytest.raises(ParameterError, match="r > 0"):
            Traffic(v=ones, l=ones, c=0.1, e=0.5, r=0)


class TestSequenceRules:
    def test_tabulate_preserves_values(self):
        from fractions import Fraction
        seq = PeriodicSeq((Fraction(2),), (Fraction(1), Fraction(3, 2)))
        re = PeriodicSeq.tabulate(seq.at, 4, 6)
        assert (re.preamble_len, re.period) == (4, 6)
        for i in range(1, 200):
            assert re.at(i) == seq.at(i)

    def test_rows_tabulate_preserves_values(self):
        from sgain.seqrules import PeriodicRows
        rows = PeriodicRows(({1: 2},), ({-1: 1, 1: 3}, {-1: 5}), bandwidth=1)
        re = PeriodicRows.tabulate(rows.row, 3, 4, bandwidth=1)
        assert (re.preamble_len, re.period, re.bandwidth) == (3, 4, 1)
        for i in range(1, 100):
            assert dict(re.row(i)) == dict(rows.row(i))

    def test_symbol_folds_offsets_mod_the_period(self):
        from sgain.seqrules import PeriodicRows
        rows = PeriodicRows(({1: 2},), ({-1: 1, 1: 3}, {-1: 5}), bandwidth=1)
        assert rows.symbol() == [[0, 4], [5, 0]]
        wide = PeriodicRows(({1: 1, 2: 1},), ({-1: 1, 1: 2, 2: 3},), bandwidth=2)
        assert wide.symbol() == [[6]]
        # the rows tabulated past a longer preamble describe the same operator:
        # same symbol up to the relabelling of residues by that preamble
        assert PeriodicRows.tabulate(rows.row, 2, 2, bandwidth=1).symbol() == [[0, 5], [4, 0]]

    def test_min_max_are_attained(self):
        seq = PeriodicSeq((5,), (2, 9, 4))
        assert seq.min() == 2 and seq.max() == 9
        values = [seq.at(i) for i in range(1, 50)]
        assert min(values) == 2 and max(values) == 9
