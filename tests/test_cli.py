"""Exit-code contract, report files, and determinism of the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import sgain
from sgain.cli import main

FAST_SIM = {"N": 20, "T": 0.2, "h": 0.002}


@pytest.fixture()
def run_main(capsys):
    """Run ``sgain.cli.main(argv)`` in-process; returns (exit code, stderr)."""
    def run(argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err
    return run


def _write(path, content):
    path.write_text(content if isinstance(content, str) else json.dumps(content, default=float))
    return path


@pytest.fixture()
def chain_cfg(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": "sgain/1",
        "network": {"scenario": "chain-a"},
        "sim": {"N": 25, "T": 2.0, "h": 0.002},
    }))
    return cfg


class TestExitCodes:
    def test_analyze_ok(self, cli, tmp_path, chain_cfg):
        r = cli(["analyze", "--config", str(chain_cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "o" / "gains.json").read_text())
        assert report["assumptions"]["ok"] is True

    def test_analyze_rejects_counter_slow(self, cli, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"network": {"scenario": "counter-slow"}}))
        r = cli(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2, r.stderr
        report = json.loads((tmp_path / "o" / "gains.json").read_text())
        assert report["assumptions"]["failed"][0] == "lambda_lo"

    def test_malformed_config_is_input_error(self, cli, run_main, tmp_path, packaged_network):
        traffic = {"family": "traffic",
                   "coefficients": {"v": 1, "l": 1, "c": "1/10", "e": "1/2", "r": 1}}
        platoon = sgain.make_scenario("lure-platoon")
        lure = packaged_network("lure-platoon")
        lure["coefficients"]["A"][0][0] = "abc"
        m_bad = [["abc", 0.5], [0.5, 0.5]]
        bad_file = tmp_path / "bad_net.json"
        bad_file.write_text("{not json")
        cases = [(["analyze"], "{not json"),
                 (["analyze"], {"network": str(bad_file)}),
                 (["certify"], {"network": lure, "derivation": platoon.derivation}),
                 (["certify"], {"network": packaged_network("lure-platoon"),
                                "derivation": {**platoon.derivation, "M": m_bad}}),
                 (["scenario", "traffic"], {"derivation": {"eps": "abc"}})]
        for c in ("abc", "1/0"):
            bad = {**traffic, "coefficients": {**traffic["coefficients"], "c": c}}
            cases += [(["certify"], {"network": bad}),
                      (["scenario", "traffic"], {"coefficients": {"c": c}})]
        for k, (command, content) in enumerate(cases):
            cfg = tmp_path / f"bad{k}.json"
            cfg.write_text(content if isinstance(content, str)
                           else json.dumps(content, default=float))
            r = cli([*command, "--config", str(cfg), "--out", str(tmp_path / f"o{k}")], tmp_path)
            assert r.returncode == 1, (content, r.stderr)
            assert r.stderr.startswith("error:"), (content, r.stderr)
            assert "Traceback" not in r.stderr, (content, r.stderr)

        # Further cases run in-process: an escaping exception fails the test.
        chain = {"scenario": "chain-a"}
        s = sgain.make_scenario("chain-a")
        cert = sgain.certify(s.family.derive_gains(s.derivation))[0]
        cert = cert.to_dict()
        cert_files = [_write(tmp_path / "cert_broken.json", "{oops"),
                      _write(tmp_path / "cert_nobracket.json",
                             {k: v for k, v in cert.items() if k != "bracket"}),
                      _write(tmp_path / "cert_nomu.json",
                             {"certificate": {k: v for k, v in cert.items() if k != "mu"}})]
        cases = [(["certify"], {"network": chain, "analysis": {"k_max": "abc"}}),
                 (["analyze"], {"network": chain, "derivation": [1, 2]}),
                 (["simulate"], {"network": chain, "sim": [1]}),
                 (["analyze"], [1, 2]),
                 (["scenario", "chain-a"], [1, 2]),
                 (["simulate"], {"network": chain, "derivation": {"eps": "abc"},
                                 "sim": FAST_SIM}),
                 (["scenario", "lure-platoon"], {"derivation": {"M": m_bad}})]
        cases += [(["verify"], {"network": chain, "sim": FAST_SIM, "certificate": str(f)})
                  for f in cert_files]
        # JSON's NaN and Infinity are read as non-finite floats unless rejected.
        nan, inf = float("nan"), float("inf")
        nan_net = _write(tmp_path / "nan_net.json",
                         {**traffic, "coefficients": {**traffic["coefficients"], "c": nan}})
        cases += [(["simulate"], {"network": chain, "sim": {**FAST_SIM, key: value}})
                  for key in ("T", "h", "N") for value in (inf, nan)]
        cases += [(["certify"], {"network": chain, "analysis": {"k_max": inf}}),
                  (["certify"], {"network": chain, "analysis": {"k_max": nan}}),
                  (["certify"], {"network": chain, "analysis": {"rho": nan}}),
                  (["analyze"], {"network": chain, "derivation": {"eps": nan, "delta": 0.1}}),
                  (["analyze"], {"network": str(nan_net)}),
                  (["scenario", "traffic"], {"coefficients": {"r": -inf}})]
        cases += [(["simulate"], {"network": chain, "sim": {
            **FAST_SIM, "N": 10, "x0": {"kind": "first-k", "K": k}}}) for k in (-1, -3)]
        geometric = ('{"network": {"scenario": "chain-a"}, "sim": {"N": 20, "T": 0.2, "h": 0.002, '
                     '"input": {"kind": "geometric", "amplitude": %s, "ratio": 0.5}}}')
        amplitudes = len(cases)
        cases += [(["simulate"], geometric % a) for a in ("1e400", "true", '"abc"')]
        cases += [(["scenario", "chain-a"], {"expected_outcome": 5}),
                  (["simulate"], {"network": chain, "sim": {**FAST_SIM, "csv_states": "false"}}),
                  (["scenario", "chain-a"], {"sim": {"x0": {"kind": "unit", "index": 500}}})]
        errs = []
        for k, (command, content) in enumerate(cases):
            cfg = _write(tmp_path / f"p{k}.json", content)
            code, err = run_main([*command, "--config", cfg, "--out", tmp_path / f"p{k}"])
            assert code == 1, (content, err)
            assert err.startswith("error:"), (content, err)
            errs.append(err)
        # An input signal's number errors name their path.
        assert errs[amplitudes:amplitudes + 3] == [
            "error: 'sim.input.amplitude': number too large for a float\n",
            "error: 'sim.input.amplitude': not a number: True\n",
            "error: 'sim.input.amplitude': not a number: 'abc'\n"]
        # A scenario whose gains cannot be derived still writes its report.
        report = json.loads((tmp_path / "p6" / "report.json").read_text())
        assert report["outcome"]["kind"] == "error"
        assert errs[6] == f"error: {report['error']}\n"
        # A failed simulation stage keeps the certificate it was given.
        out = tmp_path / f"p{len(cases) - 1}"
        report = json.loads((out / "report.json").read_text())
        assert report["outcome"]["kind"] == "error" and "simulation" not in report
        assert errs[-1] == f"error: {report['error']}\n" and "outside" in report["error"]
        stored = json.loads((out / "certificate.json").read_text())["certificate"]
        assert stored == report["certificate"] and report["verification"]["ok"]

    def test_truncation_over_the_budget_is_input_error(self, run_main, tmp_path):
        """A truncation too large to hold is refused before it is allocated; the
        scenario keeps the certificate it built."""
        cases = [(["simulate"], {"network": {"scenario": "chain-a"},
                                 "sim": {**FAST_SIM, "N": 10 ** 12}}),
                 (["scenario", "chain-a"], {"sim": {"N": 1e12}})]
        for k, (command, content) in enumerate(cases):
            cfg = _write(tmp_path / f"n{k}.json", content)
            code, err = run_main([*command, "--config", cfg, "--out", tmp_path / f"n{k}"])
            assert code == 1 and err.count("\n") == 1, err
            assert err.startswith("error: N = 1000000000000 "), err
        report = json.loads((tmp_path / "n1" / "report.json").read_text())
        assert report["outcome"]["kind"] == "error" and "simulation" not in report
        stored = json.loads((tmp_path / "n1" / "certificate.json").read_text())["certificate"]
        assert stored == report["certificate"] and report["verification"]["ok"]

    def test_closed_form_truncation_over_its_budget_is_input_error(self, run_main, tmp_path):
        cfg = _write(tmp_path / "c.json", {"network": {"scenario": "counter-slow"},
                                          "sim": {**FAST_SIM, "N": 2 ** 16 + 1}})
        code, err = run_main(["simulate", "--config", cfg, "--out", tmp_path / "out"])
        assert code == 1 and err.count("\n") == 1, err
        assert err.startswith("error: N = 65537 closed-form subsystems, over their budget"), err

    def test_ragged_and_non_integral_entries_are_input_errors(self, run_main, tmp_path,
                                                               packaged_network):
        """A ragged matrix, a fractional count and a JSON boolean where a
        number belongs each exit 1 with one error line, never a traceback
        nor a silently truncated or coerced value."""
        platoon = sgain.make_scenario("lure-platoon")
        ragged = packaged_network("lure-platoon")
        ragged["coefficients"]["A"] = [[0.0, 1.0], [-1.0]]
        chain = {"scenario": "chain-a"}
        cases = [(command, {"network": ragged, "derivation": platoon.derivation,
                            "sim": FAST_SIM}) for command in ("certify", "simulate")]
        cases += [("simulate", {"network": chain, "sim": {**FAST_SIM, "N": n}})
                  for n in (2.5, True)]
        cases += [("certify", {"network": chain, "analysis": {"k_max": 2.5}})]
        cases += [("simulate", {"network": chain, "sim": {**FAST_SIM, "x0": x0}})
                  for x0 in ({"kind": "unit", "index": 2.5}, {"kind": "first-k", "K": 2.5})]
        cases += [("analyze", {"network": {"family": "linear-chain", "coefficients": {
            "diag": True, "sub": "1/10", "sup": "1/10"}}})]
        for k, (command, content) in enumerate(cases):
            cfg = _write(tmp_path / f"c{k}.json", content)
            code, err = run_main([command, "--config", cfg, "--out", tmp_path / f"c{k}"])
            assert code == 1 and err.startswith("error:") and err.count("\n") == 1, (content, err)

    def test_lure_multiplier_scales_the_sector_term(self, run_main, tmp_path):
        """``tau`` multiplies the ``- r l G'G`` term of the S-procedure: with
        ``phi = s`` in the sector, ``dV/dt = -16 V`` here, so ``kappa = 18.9``
        is refused at ``tau = 1000`` as at every other ``tau``."""
        zero = [[0.0]]
        net = {"family": "lure-banded", "coefficients": {
            "A": [[-10.0]], "E": [[2.0]], "G": [[1.0]], "B": zero, "D_left": zero,
            "D_right": zero, "sector": [-1, 1], "phi": "saturation"}}
        cfg = _write(tmp_path / "c.json", {"network": net, "derivation": {
            "M": [[1.0]], "kappa": 18.9, "eps": 0.01, "tau": 1000}})
        code, err = run_main(["certify", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1
        assert err.startswith("error: decay-rate matrix inequality fails: largest eigenvalue")

    def test_certify_small_gain_violated(self, cli, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "network": {"scenario": "chain-a",
                        "overrides": {"coefficients": {"sub": 1, "sup": 1},
                                      "derivation": {"eps": 0.25, "delta": 0.25}}}}))
        r = cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 3, r.stderr
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert report["bracket"]["lower"] > 1

    def test_certify_and_verify_ok(self, cli, tmp_path, chain_cfg):
        out = tmp_path / "o"
        r = cli(["certify", "--config", str(chain_cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certificate"]["lambda_inf"] >= 1.3
        r = cli(["verify", "--config", str(chain_cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((out / "verification.json").read_text())
        assert rep["n_violations"] == 0

    def test_verify_corrupted_certificate(self, cli, tmp_path, chain_cfg):
        out = tmp_path / "o"
        r = cli(["certify", "--config", str(chain_cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        cert_file = out / "certificate.json"
        obj = json.loads(cert_file.read_text())
        obj["certificate"]["lambda_inf"] *= 10  # tampered decay rate
        bad = tmp_path / "bad_cert.json"
        bad.write_text(json.dumps(obj))
        cfg2 = tmp_path / "cfg2.json"
        base = json.loads(chain_cfg.read_text())
        base["certificate"] = str(bad)
        cfg2.write_text(json.dumps(base))
        r = cli(["verify", "--config", str(cfg2), "--out", str(tmp_path / "o2")], tmp_path)
        assert r.returncode == 4, r.stderr
        rep = json.loads((tmp_path / "o2" / "verification.json").read_text())
        assert rep["certificate_scan"]["ok"] is False

    @pytest.mark.parametrize("mu", [{"preamble": [], "period": [0.0], "mu_lo": 0.0, "mu_hi": 0.0},
                                    {"preamble": [], "period": [1.0], "mu_lo": 5.0, "mu_hi": 0.5}])
    def test_verify_rejects_vacuous_certificate(self, run_main, tmp_path, chain_cfg, mu):
        """A zero mu, or bounds that do not enclose mu, pass the dissipation
        margins but certify nothing: the scan fails."""
        out = tmp_path / "o"
        assert run_main(["certify", "--config", chain_cfg, "--out", out])[0] == 0
        obj = json.loads((out / "certificate.json").read_text())
        obj["certificate"]["mu"] = mu
        bad = _write(tmp_path / "bad_cert.json", obj)
        cfg = _write(tmp_path / "cfg2.json", {**json.loads(chain_cfg.read_text()),
                                              "certificate": str(bad)})
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "o2"])[0] == 4
        rep = json.loads((tmp_path / "o2" / "verification.json").read_text())
        assert rep["certificate_scan"]["ok"] is False
        assert rep["certificate_scan"]["worst_margin"] <= 0

    @pytest.mark.parametrize("lambda_inf", [-0.1, 0.0])
    def test_verify_rejects_certificate_without_decay(self, run_main, tmp_path, chain_cfg,
                                                      lambda_inf):
        """A rate lambda_inf <= 0 only makes the margins more negative, but a
        certificate that claims no decay certifies nothing, and has no envelope."""
        out = tmp_path / "o"
        assert run_main(["certify", "--config", chain_cfg, "--out", out])[0] == 0
        obj = json.loads((out / "certificate.json").read_text())
        obj["certificate"]["lambda_inf"] = lambda_inf
        bad = _write(tmp_path / "bad_cert.json", obj)
        cfg = _write(tmp_path / "cfg2.json", {**json.loads(chain_cfg.read_text()),
                                              "certificate": str(bad)})
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "o2"]) == (4, "")
        rep = json.loads((tmp_path / "o2" / "verification.json").read_text())
        assert rep["certificate_scan"]["ok"] is False
        assert rep["envelope"] is None and rep["dissipation"]["ok"]
        assert rep["n_violations"] == 1

    def test_verify_rejects_counter_slow(self, run_main, tmp_path):
        """A rejected assumption ends ``verify`` before any certificate: the
        report holds the assumption verdicts only."""
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "counter-slow"},
                                             "sim": FAST_SIM})
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "o"]) == (2, "")
        report = json.loads((tmp_path / "o" / "verification.json").read_text())
        assert sorted(report) == ["assumptions", "command", "schema"]
        assert report["assumptions"]["failed"][0] == "lambda_lo"

    def test_verify_small_gain_violated(self, run_main, tmp_path):
        """With no certificate to scan, ``verify`` exits 3 with the bracket's
        error line and writes no report."""
        net = {"family": "linear-chain", "coefficients": {"diag": 1, "sub": 0.6, "sup": 0.6}}
        cfg = _write(tmp_path / "cfg.json", {"network": net, "sim": FAST_SIM})
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "o"]) == (
            3, "error: spectral bracket [1.44, 1.44] does not establish r < 1\n")
        assert not (tmp_path / "o" / "verification.json").exists()

    def test_simulate_without_derivable_gains(self, run_main, tmp_path):
        """Gains that cannot be derived (traffic with ``eps`` 10 has no uniform
        decay) leave ``simulate`` without V: it fits the norm and exits 0."""
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "traffic"},
                                             "derivation": {"eps": 10}, "sim": FAST_SIM})
        with pytest.raises(sgain.DerivationError, match="uniform decay fails"):
            sgain.make_scenario("traffic").family.derive_gains({"eps": 10})
        assert run_main(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == (0, "")
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["final_V"] is None and summary["decay_fit"]["channel"] == "norm"

    def test_simulate_writes_csv_and_summary(self, cli, tmp_path, chain_cfg):
        out = tmp_path / "o"
        r = cli(["simulate", "--config", str(chain_cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,norm_p,V,u_norm")
        assert len(lines) == 1002  # 2.0 / 0.002 + 1 samples + header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is False

    def test_simulate_csv_states_add_only_the_state_columns(self, run_main, tmp_path):
        sim = {**FAST_SIM, "N": 6, "x0": {"kind": "first-k", "K": 2}}
        lines = {}
        for flag in (False, True):
            cfg = _write(tmp_path / f"{flag}.json", {"network": {"scenario": "chain-a"},
                                                     "sim": {**sim, "csv_states": flag}})
            assert run_main(["simulate", "--config", cfg, "--out", tmp_path / str(flag)]) == (0, "")
            lines[flag] = (tmp_path / str(flag) / "trajectory.csv").read_text().splitlines()
        scenario = sgain.make_scenario("chain-a")
        setup = sgain.sim.build_sim(scenario.family, {**scenario.sim, **sim})
        states = sgain.integrate(setup.net, setup.x0, setup.signal, setup.horizon, setup.step,
                                 keep=setup.net.dim).states
        assert lines[False][0] == "t,norm_p,V,u_norm"
        assert lines[True][0] == "t,norm_p,V,u_norm,x_1,x_2,x_3,x_4,x_5,x_6"
        for off, on, x in zip(lines[False][1:], lines[True][1:], states, strict=True):
            assert on == off + "," + ",".join(repr(float(v)) for v in x)

    def test_scenario_exit_codes(self, cli, tmp_path):
        cases = {"chain-a": 0, "counter-slow": 2, "counter-gain": 2}
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps({"sim": {"N": 25, "T": 2.0, "h": 0.002}}))
        for name, code in cases.items():
            r = cli(["scenario", name, "--config", str(cfg),
                     "--out", str(tmp_path / name)], tmp_path)
            assert r.returncode == code, r.stderr

    def test_unknown_scenario_is_input_error(self, cli, tmp_path):
        r = cli(["scenario", "nope", "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 1, r.stderr
        assert "error: unknown scenario 'nope'" in r.stderr

    def test_network_description_file_path(self, cli, tmp_path):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "schema": "sgain/1", "family": "linear-chain",
            "mode": {"eventually_periodic": {"preamble": 1, "period": 1}},
            "bandwidth": 1, "p": 2, "q": 2,
            "coefficients": {"diag": 1, "sub": 0.1, "sup": 0.1}}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "network": str(net),
            "derivation": {"eps": 0.1, "delta": 0.1}}))
        r = cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert rep["certificate"]["lambda_inf"] == pytest.approx(1.35)

    def test_file_based_counterexample_dispatch(self, cli, tmp_path):
        for family, which in (("counterexample-slow", "lambda_lo"),
                              ("counterexample-gain", "gamma_u")):
            net = tmp_path / f"{family}.json"
            net.write_text(json.dumps({
                "schema": "sgain/1", "family": family,
                "mode": {"closed_form": {}}, "bandwidth": 1,
                "p": 2, "q": 2, "coefficients": {}}))
            cfg = tmp_path / f"{family}-cfg.json"
            cfg.write_text(json.dumps({"network": str(net)}))
            r = cli(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / f"{family}-out")], tmp_path)
            assert r.returncode == 2, r.stderr
            rep = json.loads((tmp_path / f"{family}-out" / "gains.json").read_text())
            assert rep["assumptions"]["failed"][0] == which


    @pytest.mark.parametrize("family", ["counterexample-slow", "counterexample-gain"])
    def test_counterexample_exponents_other_than_two(self, run_main, tmp_path, family):
        """Every subcommand rejects a counterexample declaring p or q other
        than 2, as it does for the other families, and writes no report."""
        message = ("error: quadratic-form derivations provide gain data for p = q = 2; "
                   "the generator declares p = {}, q = {}\n")
        scenario = {"counterexample-slow": "counter-slow",
                    "counterexample-gain": "counter-gain"}[family]
        for p, q in ((3, 2), (2, 3)):
            net = {"schema": "sgain/1", "family": family, "p": p, "q": q, "coefficients": {}}
            runs = [([cmd, "--config", _write(tmp_path / f"{cmd}{p}{q}.json",
                                              {"network": net, "sim": FAST_SIM})], cmd)
                    for cmd in ("analyze", "certify", "simulate", "verify")]
            runs.append((["scenario", scenario, "--config",
                          _write(tmp_path / f"scenario{p}{q}.json", {"p": p, "q": q})], "scenario"))
            for argv, cmd in runs:
                out = tmp_path / f"out-{cmd}{p}{q}"
                assert run_main([*argv, "--out", out]) == (1, message.format(p, q)), argv
                assert not out.exists()

    @pytest.mark.parametrize("command, content, message", [
        ("simulate", {"sim": {"N": True}}, "'sim.N': not a number: True"),
        ("certify", {"analysis": {"rho": "x"}}, "'analysis.rho': not a number: 'x'"),
        ("certify", {"network": {"scenario": "chain-a", "overrides": {"p": "x"}}},
         "'p': not a number: 'x'")])
    def test_number_errors_name_their_key(self, run_main, tmp_path, command, content, message):
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"}, **content})
        code, err = run_main([command, "--config", cfg, "--out", tmp_path / "o"])
        assert (code, err) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("name, key", [("chain-a", "eps"), ("chain-a", "delta"),
                                           ("traffic", "eps")])
    def test_derivation_number_errors_name_their_key(self, run_main, tmp_path, name, key):
        cfg = _write(tmp_path / "cfg.json", {"derivation": {key: "abc"}})
        code, err = run_main(["scenario", name, "--config", cfg, "--out", tmp_path / "o"])
        assert (code, err) == (1, f"error: 'derivation.{key}': not a number: 'abc'\n")

    @pytest.mark.parametrize("command, text, message", [
        *(pytest.param(command, '{"network": {"scenario": "chain-a", '
                                '"overrides": {"coefficients": {"sub": 1e400}}}}',
                       "'coefficients.sub': ",
                       id=f"{command}-coefficient")
          for command in ("analyze", "certify", "verify")),
        *(pytest.param(command, '{"network": {"scenario": "chain-a"}, "sim": {"T": 1e400}}',
                       "'sim.T': ", id=f"{command}-horizon")
          for command in ("simulate", "verify"))])
    def test_decimal_beyond_the_float_range(self, run_main, tmp_path, command, text, message):
        cfg = _write(tmp_path / "cfg.json", text)
        code, err = run_main([command, "--config", cfg, "--out", tmp_path / "o"])
        assert (code, err) == (1, f"error: {message}number too large for a float\n")

    @pytest.mark.parametrize("x0, message", [
        ('{"kind": "first-k", "K": 2, "value": true}', "'sim.x0.value': not a number: True"),
        ('{"kind": "unit", "index": 1, "value": 1e400}',
         "'sim.x0.value': number too large for a float"),
        ('[1e400, 0, 0]', "'sim.x0': number too large for a float")],
        ids=["value-true", "value-1e400", "list-1e400"])
    def test_x0_numbers_are_input_errors(self, run_main, tmp_path, x0, message):
        """``x0``'s numbers are read as every other number is: a JSON ``true`` is
        not one, and a decimal beyond the float range is an error named by its key."""
        cfg = _write(tmp_path / "cfg.json", '{"network": {"scenario": "chain-a"}, '
                                            f'"sim": {{"N": 3, "T": 0.2, "x0": {x0}}}}}')
        code, err = run_main(["simulate", "--config", cfg, "--out", tmp_path / "o"])
        assert (code, err) == (1, f"error: {message}\n")

    def test_x0_value_reads_a_fraction_string(self, run_main, tmp_path):
        summaries = []
        for k, value in enumerate(("1/2", 0.5)):
            x0 = {"kind": "first-k", "K": 3, "value": value}
            cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"},
                                                 "sim": {**FAST_SIM, "x0": x0}})
            assert run_main(["simulate", "--config", cfg, "--out", tmp_path / str(k)]) == (0, "")
            summaries.append((tmp_path / str(k) / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_step_count_beyond_any_array(self, run_main, tmp_path, command):
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"},
                                             "sim": {**FAST_SIM, "h": 1e-300}})
        code, err = run_main([command, "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1 and err.startswith("error:") and "steps" in err, err

    def test_stored_states_beyond_the_budget(self, run_main, monkeypatch, tmp_path):
        monkeypatch.setattr(sgain.sim, "_STATE_BUDGET", 1000)  # FAST_SIM stores 101 x 20
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"},
                                             "sim": {**FAST_SIM, "csv_states": True}})
        code, err = run_main(["simulate", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1 and err.startswith("error:") and "budget" in err, err
        assert not (tmp_path / "o").exists()

    def test_subnormal_sample_times_give_no_decay_fit(self, run_main, tmp_path):
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"},
                                             "sim": {**FAST_SIM, "T": 1e-320, "h": 1e-321}})
        assert run_main(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == (0, "")
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["samples"] > 2 and summary["decay_fit"] is None

    @pytest.mark.parametrize("command, content, path", [
        ("simulate", {"sim": {**FAST_SIM, "n": 7}}, "sim.n"),
        ("certify", {"network": {"scenario": "traffic"}, "derivation": {"epsilon": "abc"}},
         "derivation.epsilon"),
        ("certify", {"analysis": {"kmax": 3}}, "analysis.kmax"),
        ("analyze", {"analysis": {"kmax": 3}}, "analysis.kmax"),
        ("analyze", {"sim": {"n": 7}}, "sim.n"),
        ("certify", {"sim": {**FAST_SIM, "n": 7}}, "sim.n"),
        ("scenario", {"coefficients": {"dia": 1}}, "coefficients.dia"),
        ("certify", {"simm": {"N": 7}}, "simm"),
        ("simulate", {"sim": {**FAST_SIM, "x0": {"kind": "zero", "value": 2}}}, "sim.x0.value"),
        ("certify", {"network": {"family": "linear-chain", "coefficients": {
            "diag": {"cycle": [1], "cylce": [9]}, "sub": 0.1, "sup": 0.1}}},
         "network.coefficients.diag.cylce")],
        ids=["sim", "derivation", "analysis", "analysis-analyze", "sim-analyze", "sim-certify",
             "override", "top-level", "x0", "rule"])
    def test_unknown_entries_name_their_path(self, run_main, tmp_path, command, content, path):
        """An entry that no table reads is an input error named by its dotted path."""
        if command == "scenario":
            argv = ["scenario", "chain-a", "--config", _write(tmp_path / "c.json", content)]
        else:
            argv = [command, "--config", _write(tmp_path / "c.json",
                                                {"network": {"scenario": "chain-a"}, **content})]
        code, err = run_main([*argv, "--out", tmp_path / "o"])
        assert (code, err) == (1, f"error: '{path}': unknown entry\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("wrapped, edit, message", [
        (False, lambda c: c["bracket"].update(k_used="x"), "'bracket.k_used': not a number: 'x'"),
        (False, lambda c: c["bracket"].update(satisfied="no"),
         "'bracket.satisfied': must be true or false, got 'no'"),
        (False, lambda c: c.update(extra=1), "'extra': unknown entry"),
        (False, lambda c: c.pop("mu"), "'mu': missing required entry"),
        (True, lambda c: c["mu"].update(period=["x"]),
         "'certificate.mu.period.0': not a number: 'x'"),
        (True, lambda c: c["bracket"].update(lower_from="both"),
         "'certificate.bracket.lower_from': must be one of symbol, section, got 'both'")],
        ids=["k_used", "satisfied", "extra", "no-mu", "mu-entry", "lower_from"])
    def test_malformed_certificate_names_its_path(self, run_main, tmp_path, chain_cfg,
                                                  wrapped, edit, message):
        """A certificate file, bare or in a report, is read by one table: a bad or
        unknown entry is an input error named by its dotted path."""
        assert run_main(["certify", "--config", chain_cfg, "--out", tmp_path / "o"])[0] == 0
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        edit(report["certificate"])
        bad = _write(tmp_path / "bad.json", report if wrapped else report["certificate"])
        cfg = _write(tmp_path / "cfg2.json", {**json.loads(chain_cfg.read_text()),
                                              "certificate": str(bad)})
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "o2"]) == (
            1, f"error: {message}\n")

    @pytest.mark.parametrize("sector", [[-1, 1, 7], [-1]], ids=["three", "one"])
    def test_sector_is_exactly_two_numbers(self, run_main, tmp_path, packaged_network, sector):
        net = packaged_network("lure-platoon")
        net["coefficients"]["sector"] = sector
        derivation = sgain.make_scenario("lure-platoon").derivation
        cfg = _write(tmp_path / "c.json", {"network": net, "derivation": derivation})
        assert run_main(["certify", "--config", cfg, "--out", tmp_path / "o"]) == (
            1, f"error: 'network.coefficients.sector': must be a list of 2, got {sector!r}\n")


class TestNullMeansDefault:
    """A null entry takes its default, as an absent one does; ``x0`` is an
    object or a list."""

    def test_traffic_eps_null_is_the_default(self, run_main, tmp_path):
        reports = []
        for k, overrides in enumerate(({}, {"derivation": {"eps": None}})):
            cfg = _write(tmp_path / f"{k}.json", {**overrides, "sim": FAST_SIM})
            out = tmp_path / str(k)
            assert run_main(["scenario", "traffic", "--config", cfg, "--out", out]) == (0, "")
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[1]["gains"]["traffic_sufficient_condition"] == 0.25
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("derivation", [{"tau": None}, {}], ids=["null", "absent"])
    def test_lure_tau_null_is_the_default(self, run_main, tmp_path, derivation):
        s = sgain.make_scenario("lure-platoon")
        base = {k: v for k, v in s.derivation.items() if k != "tau"}
        for name, tau in (("a", {"tau": 1.0}), ("b", derivation)):
            cfg = _write(tmp_path / f"{name}.json", {"network": {"scenario": "lure-platoon"},
                                                     "derivation": {**base, **tau}})
            assert run_main(["certify", "--config", cfg, "--out", tmp_path / name]) == (0, "")
        assert ((tmp_path / "a" / "certificate.json").read_bytes()
                == (tmp_path / "b" / "certificate.json").read_bytes())

    @staticmethod
    def _x0_runs(tmp_path, x0):
        """``simulate`` and ``scenario`` argv on chain-a with ``sim.x0`` set."""
        sim = {**FAST_SIM, "x0": x0}
        sim_cfg = _write(tmp_path / "sim.json", {"network": {"scenario": "chain-a"}, "sim": sim})
        over = _write(tmp_path / "over.json", {"sim": sim})
        return [["simulate", "--config", sim_cfg, "--out", tmp_path / "a"],
                ["scenario", "chain-a", "--config", over, "--out", tmp_path / "b"]]

    @pytest.mark.parametrize("x0", [0, False, ""], ids=["zero", "false", "empty-string"])
    def test_x0_neither_object_nor_list_is_input_error(self, run_main, tmp_path, x0):
        for argv in self._x0_runs(tmp_path, x0):
            assert run_main(argv) == (
                1, f"error: 'sim.x0': must be an object or a list, got {x0!r}\n"), argv

    def test_empty_x0_list_is_input_error(self, run_main, tmp_path):
        for argv in self._x0_runs(tmp_path, []):
            assert run_main(argv) == (1, "error: x0 has dimension 0, network needs 20\n"), argv

    @pytest.mark.parametrize("x0", [{}, None], ids=["empty-object", "null"])
    def test_empty_or_null_x0_is_the_zero_state(self, run_main, tmp_path, packaged_network, x0):
        """On a description, not a scenario: over a scenario's ``x0`` an empty
        object is merged and changes nothing."""
        runs = []
        for name, value in (("zero", {"kind": "zero"}), ("x", x0)):
            cfg = _write(tmp_path / f"{name}.json", {"network": packaged_network("chain-a"),
                                                     "sim": {**FAST_SIM, "x0": value}})
            out = tmp_path / name
            assert run_main(["simulate", "--config", cfg, "--out", out]) == (0, "")
            runs.append([(out / f).read_bytes() for f in ("summary.json", "trajectory.csv")])
        assert runs[1] == runs[0]
        assert json.loads(runs[1][0])["final_norm_p"] == 0.0

    def test_phi_null_is_the_default(self, run_main, tmp_path, packaged_network):
        """A description's ``"phi": null`` is the Lur'e family's default phi."""
        net = packaged_network("lure-platoon")
        acting = {"E": [[0.0], [0.1]], "G": [[0.2, 0.1]]}
        outs = []
        for name, phi in (("absent", {}), ("null", {"phi": None}),
                          ("default", {"phi": "midpoint-linear"})):
            coeff = {k: v for k, v in net["coefficients"].items() if k != "phi"}
            cfg = _write(tmp_path / f"{name}.json",
                         {"network": {**net, "coefficients": {**coeff, **acting, **phi}},
                          "derivation": sgain.make_scenario("lure-platoon").derivation,
                          "sim": FAST_SIM})
            assert run_main(["simulate", "--config", cfg, "--out", tmp_path / name]) == (0, "")
            outs.append((tmp_path / name / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert sgain.make_scenario("lure-platoon",
                                   {"coefficients": {"phi": None}}).family.phi == "midpoint-linear"

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_exponent_null_is_two(self, run_main, tmp_path, packaged_network, key):
        net = packaged_network("chain-a")
        for name, value in (("two", 2), ("null", None)):
            cfg = _write(tmp_path / f"{name}.json", {"network": {**net, key: value}})
            assert run_main(["certify", "--config", cfg, "--out", tmp_path / name]) == (0, "")
        assert ((tmp_path / "two" / "certificate.json").read_bytes()
                == (tmp_path / "null" / "certificate.json").read_bytes())

    def test_scenario_notes_null_is_the_scenario_text(self, run_main, tmp_path):
        reports = []
        for name, over in (("absent", {}), ("null", {"notes": None})):
            cfg = _write(tmp_path / f"{name}.json", {**over, "sim": FAST_SIM})
            out = tmp_path / name
            assert run_main(["scenario", "chain-a", "--config", cfg, "--out", out]) == (0, "")
            reports.append((out / "report.json").read_bytes())
        assert reports[1] == reports[0]
        assert json.loads(reports[1])["notes"] == sgain.make_scenario("chain-a").notes != ""


class TestHarness:
    def test_child_imports_sgain_under_test(self, cli_env, tmp_path):
        r = subprocess.run([sys.executable, "-c", "import sgain; print(sgain.__file__)"],
                           cwd=tmp_path, env=cli_env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert Path(r.stdout.strip()).resolve() == Path(sgain.__file__).resolve()


class TestDeterminism:
    def test_byte_identical_reports(self, cli, tmp_path):
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps({"sim": {"N": 20, "T": 1.0, "h": 0.002}}))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            r = cli(["scenario", "chain-a", "--config", str(cfg),
                     "--out", str(out), "--seed", "7"], tmp_path)
            assert r.returncode == 0, r.stderr
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_is_only_echoed(self, run_main, tmp_path):
        """Nothing in a scenario run is random: reports under two seeds
        differ only in the echoed ``seed``."""
        cfg = _write(tmp_path / "fast.json", {"sim": FAST_SIM})
        reports = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            assert run_main(["scenario", "chain-a", "--config", cfg, "--out", out,
                             "--seed", seed]) == (0, "")
            reports.append(json.loads((out / "report.json").read_text()))
        assert [r.pop("seed") for r in reports] == [1, 2]
        assert reports[0] == reports[1]


class TestGoldenOutputs:
    """``analyze`` and ``certify`` on each shipped scenario write the bytes
    stored under ``tests/golden/NAME``; no trajectory float enters them."""

    @pytest.mark.parametrize("name", sgain.SCENARIO_NAMES)
    @pytest.mark.parametrize("command, report", [("analyze", "gains.json"),
                                                 ("certify", "certificate.json")])
    def test_report_bytes(self, run_main, tmp_path, name, command, report):
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": name}})
        code, err = run_main([command, "--config", cfg, "--out", tmp_path])
        assert err == "" and code in (0, 2)
        golden = Path(__file__).with_name("golden") / name / report
        assert (tmp_path / report).read_bytes() == golden.read_bytes()


class TestOnePipeline:
    @pytest.mark.parametrize("name, overrides", [
        ("chain-a", {}), ("traffic", {}), ("lure-platoon", {}),
        ("traffic", {"derivation": {"eps": None}})],
        ids=["chain-a", "traffic", "lure-platoon", "traffic-eps-null"])
    def test_certify_agrees_with_scenario_report(self, run_main, tmp_path, name, overrides):
        fast = _write(tmp_path / "fast.json", {**overrides, "sim": FAST_SIM})
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": name, "overrides": overrides}})
        assert run_main(["scenario", name, "--config", fast, "--out", tmp_path / "s"]) == (0, "")
        assert run_main(["certify", "--config", cfg, "--out", tmp_path / "c"]) == (0, "")
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
        for key in ("assumptions", "bracket", "certificate", "verification"):
            assert cert[key] == report[key], key
        s = sgain.make_scenario(name, overrides)
        notes = s.family.report_notes(s.family.derive_gains(s.derivation))
        assert cert["gains"] == {k: v for k, v in report["gains"].items() if k not in notes}

    def test_config_derivation_is_merged_over_the_scenario(self, run_main, tmp_path):
        """A run configuration's ``derivation`` over a scenario is deep-merged, as
        an override of ``sgain scenario`` is: ``tau`` 2 keeps lure-platoon's
        ``M``, ``kappa`` and ``eps``."""
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "lure-platoon"},
                                             "derivation": {"tau": 2}})
        assert run_main(["certify", "--config", cfg, "--out", tmp_path / "c"]) == (0, "")
        over = _write(tmp_path / "over.json", {"derivation": {"tau": 2}, "sim": FAST_SIM})
        assert run_main(["scenario", "lure-platoon", "--config", over,
                         "--out", tmp_path / "s"]) == (0, "")
        cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        assert cert["gains"]["free_params"]["tau"] == 2.0
        for key in ("gains", "bracket", "certificate"):
            assert cert[key] == report[key], key

    def test_config_sim_is_merged_over_the_scenario(self, run_main, tmp_path):
        """``"x0": {"value": 2}`` over chain-a keeps its first-k 5, as an
        override of ``sgain scenario`` does."""
        sim = {**FAST_SIM, "x0": {"value": 2}}
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"}, "sim": sim})
        plain = _write(tmp_path / "plain.json", {
            "network": {"scenario": "chain-a"},
            "sim": {**FAST_SIM, "x0": {"kind": "first-k", "K": 5, "value": 2}}})
        for name, path in (("merged", cfg), ("plain", plain)):
            assert run_main(["simulate", "--config", path, "--out", tmp_path / name]) == (0, "")
        merged, full = ((tmp_path / name / "trajectory.csv").read_bytes()
                        for name in ("merged", "plain"))
        assert merged == full
        first = merged.split(b"\r\n")[1].split(b",")
        assert float(first[1]) == pytest.approx(2.0 * 5 ** 0.5)  # norm_p at t = 0

    def test_config_input_of_another_kind_replaces_the_scenario_input(self, run_main, tmp_path,
                                                                       packaged_network):
        """``traffic-lights`` over lure-platoon's geometric input replaces it whole:
        the geometric ``ratio`` is not carried into it, so the run equals the
        same configuration on the packaged description."""
        lights = {"kind": "traffic-lights", "t_on": 0.1, "t_off": 0.1}
        s = sgain.make_scenario("lure-platoon")
        over = _write(tmp_path / "over.json", {"network": {"scenario": "lure-platoon"},
                                               "sim": {**FAST_SIM, "input": lights}})
        plain = _write(tmp_path / "plain.json", {
            "network": packaged_network("lure-platoon"), "derivation": s.derivation,
            "sim": {**s.sim, **FAST_SIM, "input": lights}})
        for name, path in (("over", over), ("plain", plain)):
            assert run_main(["simulate", "--config", path, "--out", tmp_path / name]) == (0, "")
        merged, full = ((tmp_path / name / "summary.json").read_bytes()
                        for name in ("over", "plain"))
        assert merged == full
        assert json.loads(merged)["input"] == {**lights, "amplitude": 1.0}

    def test_zero_input_over_a_scenario_is_the_zero_input(self, run_main, tmp_path):
        """``{"input": {"kind": "zero"}}`` over lure-platoon, as a run configuration's
        ``sim`` and as a scenario override, is the zero input."""
        sim = {**FAST_SIM, "input": {"kind": "zero"}}
        s = sgain.make_scenario("lure-platoon", {"sim": sim})
        assert sgain.sim.build_sim(s.family, s.sim).signal == sgain.sim.Zero()
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "lure-platoon"}, "sim": sim})
        assert run_main(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == (0, "")
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["input"] == {"kind": "zero"} and summary["u_sup_norm"] == 0.0

    def test_series_length_key_is_unread(self, run_main, tmp_path):
        """``analysis.K`` no longer sets anything: the series stops where it closes."""
        plain = _write(tmp_path / "a.json", {"network": {"scenario": "traffic"}})
        with_k = _write(tmp_path / "b.json", {"network": {"scenario": "traffic"},
                                              "analysis": {"K": 5}})
        assert run_main(["certify", "--config", plain, "--out", tmp_path / "a"]) == (0, "")
        assert run_main(["certify", "--config", with_k, "--out", tmp_path / "b"]) == (0, "")
        assert ((tmp_path / "a" / "certificate.json").read_bytes()
                == (tmp_path / "b" / "certificate.json").read_bytes())

    def test_rate_cap_keys_are_unread(self, run_main, tmp_path):
        """``analysis.h_start`` and ``analysis.h_doublings`` set nothing: no
        description reaches a rate cap, so values that are not even numbers
        give the same certificate."""
        plain = _write(tmp_path / "a.json", {"network": {"scenario": "chain-a"}})
        with_h = _write(tmp_path / "b.json", {"network": {"scenario": "chain-a"},
                                              "analysis": {"h_start": "x", "h_doublings": 2.5}})
        assert run_main(["certify", "--config", plain, "--out", tmp_path / "a"]) == (0, "")
        assert run_main(["certify", "--config", with_h, "--out", tmp_path / "b"]) == (0, "")
        assert ((tmp_path / "a" / "certificate.json").read_bytes()
                == (tmp_path / "b" / "certificate.json").read_bytes())

    def test_lure_derivation_reads_fraction_strings(self, run_main, tmp_path, packaged_network):
        """Every Lur'e derivation number, ``M``'s entries included, may be a
        ``"p/q"`` string, as in the other derivations."""
        s = sgain.make_scenario("lure-platoon")
        net = packaged_network("lure-platoon")
        decimal = {**s.derivation, "kappa": 0.5, "eps": 0.125}
        strings = {**s.derivation, "kappa": "1/2", "eps": "1/8",
                   "M": [[str(x) for x in row] for row in s.derivation["M"]]}
        for name, derivation in (("a", decimal), ("b", strings)):
            cfg = _write(tmp_path / f"{name}.json", {"network": net, "derivation": derivation})
            assert run_main(["certify", "--config", cfg, "--out", tmp_path / name]) == (0, "")
        assert ((tmp_path / "a" / "certificate.json").read_bytes()
                == (tmp_path / "b" / "certificate.json").read_bytes())

    def test_tolerance_coefficient_key_is_unread(self, run_main, tmp_path):
        """``sim.c_tol`` no longer sets anything: the coefficient is fixed at 20."""
        plain = _write(tmp_path / "a.json", {"sim": FAST_SIM})
        with_c = _write(tmp_path / "b.json", {"sim": {**FAST_SIM, "c_tol": 5.0}})
        for cfg, out in ((plain, "a"), (with_c, "b")):
            argv = ["scenario", "traffic", "--config", cfg, "--out", tmp_path / out]
            assert run_main(argv) == (0, "")
        report = (tmp_path / "b" / "report.json").read_bytes()
        assert report == (tmp_path / "a" / "report.json").read_bytes()
        assert json.loads(report)["simulation"]["dissipation_forced"]["tol_coefficient"] == 20.0

    def test_verify_scans_the_certificate_of_the_analysis_settings(self, run_main, tmp_path):
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": "chain-a"},
                                             "analysis": {"rho": 0.01}, "sim": FAST_SIM})
        assert run_main(["certify", "--config", cfg, "--out", tmp_path / "o"]) == (0, "")
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "o"]) == (0, "")
        cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
        rep = json.loads((tmp_path / "o" / "verification.json").read_text())
        assert rep["certificate_scan"] == cert["verification"]

    @pytest.mark.parametrize("network", [
        {"scenario": "counter-slow"},
        {"scenario": "chain-a", "overrides": {"coefficients": {"sub": 1, "sup": 1},
                                              "derivation": {"eps": 0.25, "delta": 0.25}}}])
    def test_simulate_without_certificate_has_no_v(self, run_main, tmp_path, network):
        cfg = _write(tmp_path / "cfg.json", {"network": network, "sim": {
            **FAST_SIM, "x0": {"kind": "first-k", "K": 3}}})
        assert run_main(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == (0, "")
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["final_V"] is None
