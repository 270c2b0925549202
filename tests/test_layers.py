"""The exact layer runs without the numeric layer and never loads scipy."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sgain

SRC = Path(sgain.__file__).resolve().parent
NUMERIC = ("network", "sim")
# The only places where the exact layer imports the numeric layer.
LAZY_IMPORTS = {"scenarios": {"run_pipeline"}, "cli": {"cmd_simulate", "cmd_verify"},
                "__init__": {"__getattr__"}}

# Every name ``sgain`` exported before the split into two layers.
EXPORTED = """
AssumptionReport CannotCertifyError ClosedFormSeq CompositeLyapunov ConstantOnFirstK
CounterexampleGain CounterexampleSlow DecayFit DerivationError EtaVector ExampleScenario
FAMILIES Family GainData GeometricProfile HALF_SQUARE InsufficientDataError
InternalInconsistencyError InvalidCertificateError InvalidIndexError LinearChain LureBanded
NumericInputError Outcome ParameterError PeriodicRows PeriodicSeq PowerTable
QuadraticForm ResourceError SCENARIO_NAMES SgainError ShapeError SinusoidOnFirstK
SmallGainCertificate SmallGainViolatedError SpectralBracket Traffic TrafficLights
TrajectoryRecord TruncatedNetwork UnknownScenarioError Zero
build_certificate build_gain_operator cap_decay_rates certificate_from_dict certify
check_assumptions check_lure_lmi classify_traffic_cell derive_gains_linear_chain
derive_gains_lure derive_gains_traffic export_csv fit_decay
generator_from_dict initial_state integrate
load_generator make_scenario neumann_eta operator_power_column_sums
optimize_chain_free_params run_pipeline signal_from_dict spectral_bracket
truncate truncation_convergence_probe verify_certificate verify_dissipation verify_envelope
""".split()

CHILD = """
import json, sys
import sgain.cli

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

cfg, out = sys.argv[1], sys.argv[2]
seen = {}
for command in ("certify", "analyze"):
    seen[command] = (sgain.cli.main([command, "--config", cfg, "--out", out]), scipy_loaded())
import sgain
for name in sgain.SCENARIO_NAMES:  # the benchmark's set-up code
    sgain.make_scenario(name)
seen["setup"] = (0, scipy_loaded())
seen["simulate"] = (sgain.cli.main(["simulate", "--config", cfg, "--out", out]), scipy_loaded())
print(json.dumps(seen))
"""


def test_scipy_stays_out_of_the_exact_layer(cli_env, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"scenario": "traffic"},
                               "sim": {"N": 10, "T": 0.01, "h": 0.001}}))
    r = subprocess.run([sys.executable, "-c", CHILD, str(cfg), str(tmp_path / "o")],
                       cwd=tmp_path, env=cli_env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout)
    assert seen == {"certify": [0, False], "analyze": [0, False], "setup": [0, False],
                    "simulate": [0, True]}


def _imports(tree):
    """(enclosing function or None, imported module) of every import in ``tree``."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Import):
                out.extend((fn, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                mods = [child.module] if child.module else [a.name for a in child.names]
                out.extend((fn, "." * child.level + m) for m in mods)
            elif isinstance(child, ast.Call) and getattr(child.func, "attr", "") == "import_module":
                out.append((fn, ".<dynamic>"))
            walk(child, fn)

    walk(tree, None)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_boundary(path):
    """Only network and sim import scipy; the exact layer imports them only lazily."""
    for fn, mod in _imports(ast.parse(path.read_text())):
        if mod.split(".")[0] == "scipy":
            assert path.stem in NUMERIC, (path.stem, mod)
        if path.stem not in NUMERIC and (mod.lstrip(".") in NUMERIC or mod == ".<dynamic>"):
            assert fn in LAZY_IMPORTS.get(path.stem, ()), (path.stem, fn, mod)


def _block_reads(tree):
    """Lines of the ``.blocks`` reads in ``tree`` outside the body of an
    ``if <family>.structure is None`` branch, where a closed form's are read."""
    out = []

    def closed_form(test):
        return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Attribute)
                and test.left.attr == "structure" and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None)

    def visit(node):
        if isinstance(node, ast.If) and closed_form(node.test):
            children = node.orelse
        else:
            if isinstance(node, ast.Attribute) and node.attr == "blocks":
                out.append(node.lineno)
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(tree)
    return out


def test_numeric_layer_reads_blocks_only_through_the_table():
    """network and sim get subsystem data from a family's tables, formed once per
    instance; only a closed form, which has none, is read block by block."""
    assert _block_reads(ast.parse("a = fam.blocks(1)\nb = map(fam.blocks, r)")) == [1, 2]
    assert _block_reads(ast.parse("if fam.structure is None:\n    a = fam.blocks(1)\n"
                                  "else:\n    a = fam.blocks(2)")) == [4]
    for stem in NUMERIC:
        assert _block_reads(ast.parse((SRC / f"{stem}.py").read_text())) == [], stem
    assert "float_table" in (SRC / "network.py").read_text()


def test_exported_names_resolve():
    for name in EXPORTED:
        value = getattr(sgain, name)
        scope: dict = {}
        exec(f"from sgain import {name}", scope)
        assert scope[name] is value, name
    with pytest.raises(AttributeError):
        sgain.no_such_name  # noqa: B018


# The exact layer's integer path: the functions (and methods, by name) that run
# on int numerators over one denominator.
INTEGER_PATH = {"families": {"flows", "block_table", "float_table"},
                "gains": {"optimize_chain_free_params", "derive_gains_linear_chain",
                          "derive_gains_traffic", "traffic_small_gain_sufficient",
                          "build_gain_operator", "check_assumptions"},
                "seqrules": {"integer_form"}}


def _names_read(tree, functions):
    """{function name: every name and attribute read in its body} of the
    functions and methods in ``tree`` named in ``functions``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            out.setdefault(node.name, set()).update(
                n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)))
    return out


def test_integer_path_forms_no_fraction():
    """The derivations, the operator and Theta's integer form name neither
    ``Fraction`` nor ``exact_div``: a Fraction is formed only where a value leaves."""
    assert _names_read(ast.parse("def f(x):\n    return Fraction(x)"), {"f"})["f"] >= {"Fraction"}
    for stem, functions in INTEGER_PATH.items():
        found = _names_read(ast.parse((SRC / f"{stem}.py").read_text()), functions)
        assert found.keys() == functions, stem
        for name, names in found.items():
            assert not names & {"Fraction", "exact_div"}, (stem, name)
