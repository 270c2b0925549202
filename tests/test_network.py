"""Subsystem descriptions, traffic classification, truncation, and RHS."""

import collections
import dataclasses
import functools
import json
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import sgain
from sgain import (InvalidIndexError, LinearChain, ParameterError, ResourceError, Traffic,
                   classify_traffic_cell, truncate)
from sgain.families import round_blocks
from sgain.network import _chained_steps, _gather, _rk4_polynomial, csr_matvec
from sgain.seqrules import PeriodicSeq, exact_div
from test_sim import _rhs


def chain_gen(b_diag=1, b_off="0.1"):
    off = PeriodicSeq.constant(b_off)
    return LinearChain(diag=PeriodicSeq.constant(b_diag), sub=off, sup=off)


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
        assert list(fam.blocks(1)[1]) == [1]
        assert fam.sub.at(1) != 0 and fam.blocks(1)[1].get(-1, 0) == 0  # forced b_10 = 0

    def test_chain_interior_node(self):
        a, d, b = chain_gen().float_table.at(5)
        assert sorted(d) == [-1, 1]
        assert a.shape == (1, 1) and not b.any()

    def test_traffic_cell_11(self):
        assert sorted(traffic_gen().blocks(11)[1]) == [-4, 1]  # S9 cell: {i-4, i+1}

    def test_invalid_index(self):
        for name in sgain.SCENARIO_NAMES:
            fam = sgain.make_scenario(name).family
            for i in (0, -3):
                with pytest.raises(InvalidIndexError):
                    fam.blocks(i)

    def test_eventual_periodicity(self):
        chain, traffic = chain_gen(), traffic_gen()
        cases = ((chain, chain.blocks),  # with the exact records
                 (traffic, traffic.blocks),
                 (sgain.make_scenario("lure-platoon").family, lambda i: None))
        for fam, record in cases:
            pre, period = fam.structure
            for i in range(pre + 1, pre + 40):
                rounded = round_blocks(fam.blocks(i))
                assert same_blocks(rounded, round_blocks(fam.blocks(i + period)))
                assert same_blocks(rounded, fam.float_table.at(i))
                assert record(i) == record(i + period)

    def test_decoupled_chain_has_no_neighbors(self):
        assert chain_gen(b_off=0).blocks(7)[1] == {}


class TestBlockTable:
    """An instance forms its stored blocks once, for its derivation and every truncation."""

    @pytest.mark.parametrize("name", ["traffic", "chain-a"])
    def test_each_stored_block_is_formed_once(self, name, monkeypatch):
        """The table is formed once, and no block is read subsystem by subsystem."""
        s = sgain.make_scenario(name)
        cls, calls = type(s.family), collections.Counter()
        form = cls.block_table.func

        def counted(fam):
            calls["table"] += 1
            return form(fam)

        table = functools.cached_property(counted)
        table.__set_name__(cls, "block_table")
        monkeypatch.setattr(cls, "block_table", table)
        monkeypatch.setattr(cls, "blocks", lambda fam, i: pytest.fail(f"blocks({i}) read"))
        s.family.derive_gains(s.derivation)
        for n in (20, 40, 80):
            truncate(s.family, n)
        assert calls == {"table": 1}

    def test_the_tables_are_per_instance(self):
        fam = traffic_gen()
        twin = dataclasses.replace(fam)
        assert twin == fam and hash(twin) == hash(fam)
        assert twin.block_table is not fam.block_table and twin.float_table is not fam.float_table
        assert twin.flows is not fam.flows


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
            name, (a, d, b_i) = classify_traffic_cell(i), fam.blocks(i)
            e_i = -a - exact_div(fam.v.at(i), fam.l.at(i))  # A_ii = -(v_i/l_i + e_i)
            offs, e_exp, b_exp = expected[name]
            assert tuple(sorted(d)) == tuple(sorted(offs))
            assert float(e_i) == e_exp and float(b_i) == b_exp


class TestTruncate:
    @pytest.mark.parametrize("n, message", [
        (10.5, "'N': must be an integer, got 10.5"), (True, "'N': not a number: True"),
        ([10], "'N': not a number: [10]")])
    def test_count_is_read_as_an_integer(self, n, message):
        with pytest.raises(ParameterError) as exc:
            truncate(chain_gen(), n)
        assert str(exc.value) == message

    def test_integral_count_reads_as_its_int(self):
        assert truncate(chain_gen(), "10").n_subsystems == truncate(chain_gen(), 10.0).n_subsystems == 10

    def test_single_subsystem_reads_zero_boundary(self):
        net = truncate(chain_gen(), 1)
        assert net.dim == 1
        dx = _rhs(net, np.array([1.0]), np.zeros(0))
        assert dx == pytest.approx([-1.0])  # coupling to x_2 reads zero

    def test_chain_truncation_is_tridiagonal(self):
        net = truncate(chain_gen(), 10)
        a = net.drift_matrix.toarray()
        assert a.shape == (10, 10)
        i, j = np.nonzero(a)
        assert np.all(np.abs(i - j) <= 1)
        assert np.allclose(np.diag(a), -1.0)

    def test_traffic_truncation_couples_12_to_16(self):
        net = truncate(traffic_gen(), 16)
        assert net.dim == 16
        a = net.drift_matrix.toarray()
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

    def test_closed_form_past_its_budget_is_refused_at_once(self, monkeypatch):
        """A closed form's blocks are read one by one: past 2^16 subsystems its
        truncation is refused before they are; an eventually periodic one is not."""
        t0 = time.perf_counter()
        with pytest.raises(ResourceError, match="closed-form"):
            truncate(sgain.make_scenario("counter-slow").family, 2 ** 16 + 1)
        assert time.perf_counter() - t0 < 0.1
        assert truncate(chain_gen(), 2 ** 16 + 1).n_subsystems == 2 ** 16 + 1
        monkeypatch.setattr(sgain.network, "CLOSED_FORM_BUDGET", 8)
        assert truncate(sgain.make_scenario("counter-gain").family, 8).n_subsystems == 8
        with pytest.raises(ResourceError, match="over their budget 8"):
            truncate(sgain.make_scenario("counter-gain").family, 9)


class TestEvaluateRhs:
    """The stacked right-hand side ``net.rhs`` of a truncation."""

    def test_origin_is_equilibrium_everywhere(self):
        for name in sgain.SCENARIO_NAMES:
            gen = sgain.make_scenario(name).family
            net = truncate(gen, 12)
            dx = _rhs(net, np.zeros(net.dim), np.zeros(net.input_dim))
            assert np.all(dx == 0)

    def test_chain_hand_computed(self):
        net = truncate(chain_gen(), 3)
        dx = _rhs(net, np.array([1.0, 0.0, 0.0]), np.zeros(0))
        assert dx == pytest.approx([-1.0, 0.1, 0.0])

    def test_lure_with_inactive_nonlinearity_is_linear(self):
        gen = sgain.make_scenario("lure-platoon").family
        net = truncate(gen, 4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(net.dim)
        u = rng.standard_normal(net.input_dim)
        dx = _rhs(net, x, u)
        expected = net.drift_matrix @ x + net.input_matrix @ u
        assert dx == pytest.approx(expected)

    @pytest.mark.parametrize("l, r", [("1.5", "3"), ("0.2", "0.8"), ("-2", "-0.5"),
                                      ("-0.5", "1.5")], ids=["l", "r", "r-neg", "one"])
    @pytest.mark.parametrize("phi", ["midpoint-linear", "saturation"])
    def test_active_sector_channel_matches_block_formula(self, phi, l, r):
        """A x + E phi(G x) + B u per block, with the channel folded into A: the
        saturation's reference is its first definition, ``s`` clipped to between
        ``l s`` and ``r s``, whose slope ``clip(1, l, r)`` is ``l``, ``r`` or 1."""
        sector = {"E": [[0.0], [0.4]], "G": [[0.3, -0.2]], "sector": [l, r]}
        fam = sgain.make_scenario("lure-platoon",
                                  {"coefficients": {"phi": phi, **sector}}).family
        net = truncate(fam, 6)
        rng = np.random.default_rng(3)
        x = 10.0 * rng.standard_normal(net.dim)
        u = rng.standard_normal(net.input_dim)
        blocks = x.reshape(6, 2)
        e, g, b = (np.array(m, dtype=float) for m in (fam.e, fam.g, fam.b))
        a, dl, dr = (np.array(m, dtype=float) for m in (fam.a, fam.d_left, fam.d_right))
        padded = np.vstack([np.zeros(2), blocks, np.zeros(2)])
        s = blocks @ g.ravel()
        lo_s, hi_s = float(l) * s, float(r) * s
        phi_s = (np.clip(s, np.minimum(lo_s, hi_s), np.maximum(lo_s, hi_s))
                 if phi == "saturation" else 0.5 * (float(l) + float(r)) * s)
        expected = (blocks @ a.T + padded[:-2] @ dl.T + padded[2:] @ dr.T
                    + phi_s[:, None] * e.ravel()
                    + u[:, None] * b.ravel()).ravel()
        assert _rhs(net, x, u) == pytest.approx(expected, rel=1e-14, abs=1e-13)

    def test_banded_locality(self):
        gen = traffic_gen()
        net = truncate(gen, 30)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(net.dim)
        base = _rhs(net, x, np.zeros(net.input_dim))
        i = 10
        allowed = {i + off for off in gen.blocks(i)[1]} | {i}
        for j in range(1, 31):
            if j in allowed:
                continue
            xp = x.copy()
            xp[j - 1] += 1.0
            out = _rhs(net, xp, np.zeros(net.input_dim))
            assert out[i - 1] == base[i - 1]


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
            csr_matvec(rows, 3, r.indptr, r.indices, r.data, ref[j], ref[j + 1])
        _chained_steps(r.indptr, r.indices, r.data, 4)(blk.ravel(), 4, rows)
        assert np.array_equal(blk.view(np.int64), ref.view(np.int64))


def test_int64_index_arrays_give_the_int32_results_bit_for_bit():
    """``R``'s index arrays turn int64 past 2^31 entries: on int64 copies of a
    small truncation's arrays, the kernels that build, tile and step ``R``
    return its int32 results as int64, every float bit for bit."""
    net, h = truncate(traffic_gen(), 60), 1e-3
    a, dim, rng = net.drift_matrix, net.dim, np.random.default_rng(5)
    assert a.indices.dtype == np.int32
    rows = np.sort(rng.integers(0, dim, dim))  # a row may repeat, as when tiling
    shift, x0 = rng.integers(-3, 4, dim), rng.standard_normal(dim)
    out = []
    for it in (np.int32, np.int64):
        r = _rk4_polynomial(dim, a.indptr.astype(it), a.indices.astype(it), h * a.data)
        tiled, cut = _gather(*r, rows, shift), _gather(*r, rows, shift, dim)
        assert all(x.dtype == it for x in (*r[:2], *tiled[:2], *cut[:2]))
        flat = np.zeros(8 * dim)
        flat[:dim] = x0
        _chained_steps(*r, 3)(flat, 6, dim)  # two calls of three chained steps
        _chained_steps(*r, 3)(flat[6 * dim:], 1, dim // 2)  # one step on half the rows
        out.append((*r, *tiled, *cut, flat))
    for x32, x64 in zip(*out):
        assert np.array_equal(x32.view(np.int64) if x32.dtype == float else x32,
                              x64.view(np.int64) if x64.dtype == float else x64)


class TestSectorNonlinearities:
    @pytest.mark.parametrize("phi", ["saturation", "midpoint-linear", "zero"])
    def test_sector_inequality_sampled(self, phi):
        """The channel a truncation applies, ``E phi(G x)``: its right-hand side
        less the raw ``A x``, along ``x = s G'/|G|^2``, so that ``G x = s``."""
        coeff = {"sector": [-0.5, 2.0], "phi": phi, "E": [[0.0], [0.4]], "G": [[0.3, -0.2]]}
        fam = sgain.make_scenario("lure-platoon", {"coefficients": coeff}).family
        net, a, g = truncate(fam, 1), np.array(fam.a, dtype=float), np.array(fam.g[0])
        s = np.linspace(-5, 5, 201)
        val = np.array([(net.rhs(x, None) - a @ x)[1] / 0.4 for x in np.outer(s, g / (g @ g))])
        sector = (val - 2.0 * s) * (val - (-0.5) * s)
        assert np.all(sector <= 1e-12)
        assert s[100] == 0.0 and val[100] == 0.0

    def test_zero_phi_requires_straddling_sector(self):
        with pytest.raises(ParameterError):
            sgain.make_scenario("lure-platoon", {"coefficients": {"sector": [0.5, 2.0]}})


class TestDescriptionFiles:
    def test_round_trip(self, tmp_path, packaged_network):
        """A packaged scenario's description, written to its own file, reads back
        as the scenario's family."""
        for name in sgain.SCENARIO_NAMES:
            gen = sgain.make_scenario(name).family
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(packaged_network(name)))
            back = sgain.load_generator(path)
            assert back == gen

    @pytest.mark.parametrize("p, q", [(math.inf, 2), (2, math.inf), (math.inf, math.inf),
                                      (math.nan, 2)])
    def test_exponents_finite(self, p, q, packaged_network):
        obj = {**packaged_network("chain-a"), "p": p, "q": q}
        with pytest.raises(ParameterError, match="not a finite number"):
            sgain.generator_from_dict(obj)

    @pytest.mark.parametrize("name", sgain.SCENARIO_NAMES)
    @pytest.mark.parametrize("p, q", [(3, 2), (2, 3), ("1/2", 2)])
    def test_non_quadratic_exponents_rejected(self, name, p, q, packaged_network):
        obj = {**packaged_network(name), "p": p, "q": q}
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
