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

    def test_malformed_config_is_input_error(self, cli, run_main, tmp_path):
        traffic = {"family": "traffic",
                   "coefficients": {"v": 1, "l": 1, "c": "1/10", "e": "1/2", "r": 1}}
        platoon = sgain.make_scenario("lure-platoon")
        lure = sgain.generator_to_dict(platoon.generator)
        lure["coefficients"]["A"][0][0] = "abc"
        m_bad = [["abc", 0.5], [0.5, 0.5]]
        bad_file = tmp_path / "bad_net.json"
        bad_file.write_text("{not json")
        cases = [(["analyze"], "{not json"),
                 (["analyze"], {"network": str(bad_file)}),
                 (["certify"], {"network": lure, "derivation": platoon.derivation}),
                 (["certify"], {"network": sgain.generator_to_dict(platoon.generator),
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
        cert = sgain.certify(sgain.derive_scenario_gains(sgain.make_scenario("chain-a")))[0]
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
        cases += [(["scenario", "chain-a"], {"expected_outcome": 5}),
                  (["simulate"], {"network": chain, "sim": {**FAST_SIM, "csv_states": "false"}}),
                  (["simulate"], {"network": chain, "sim": {**FAST_SIM, "store_states": 0}}),
                  (["scenario", "chain-a"], {"sim": {"x0": {"kind": "unit", "index": 500}}})]
        errs = []
        for k, (command, content) in enumerate(cases):
            cfg = _write(tmp_path / f"p{k}.json", content)
            code, err = run_main([*command, "--config", cfg, "--out", tmp_path / f"p{k}"])
            assert code == 1, (content, err)
            assert err.startswith("error:"), (content, err)
            errs.append(err)
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

    def test_simulate_writes_csv_and_summary(self, cli, tmp_path, chain_cfg):
        out = tmp_path / "o"
        r = cli(["simulate", "--config", str(chain_cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,norm_p,V,u_norm")
        assert len(lines) == 1002  # 2.0 / 0.002 + 1 samples + header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is False

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


class TestOnePipeline:
    @pytest.mark.parametrize("name", ["chain-a", "traffic", "lure-platoon"])
    def test_certify_agrees_with_scenario_report(self, run_main, tmp_path, name):
        fast = _write(tmp_path / "fast.json", {"sim": FAST_SIM})
        cfg = _write(tmp_path / "cfg.json", {"network": {"scenario": name}})
        assert run_main(["scenario", name, "--config", fast, "--out", tmp_path / "s"]) == (0, "")
        assert run_main(["certify", "--config", cfg, "--out", tmp_path / "c"]) == (0, "")
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
        for key in ("assumptions", "bracket", "certificate", "verification"):
            assert cert[key] == report[key], key
        s = sgain.make_scenario(name)
        notes = s.generator.family.report_notes(s.generator, s.derivation)
        assert cert["gains"] == {k: v for k, v in report["gains"].items() if k not in notes}

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
