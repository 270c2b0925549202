import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgain


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a child interpreter that imports the sgain under test.

    The directory holding the imported package goes first on PYTHONPATH as an
    absolute path, so the child finds it from any working directory (a
    relative entry such as ``src`` resolves against the child's cwd).
    """
    root = str(Path(sgain.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([root, inherited] if inherited else [root])}


@pytest.fixture(scope="session")
def cli(cli_env):
    """Run ``python -m sgain.cli ARGS`` in ``cwd``; returns the CompletedProcess."""
    def run(args, cwd):
        return subprocess.run([sys.executable, "-m", "sgain.cli", *args], cwd=cwd,
                              env=cli_env, capture_output=True, text=True)
    return run


@pytest.fixture(scope="session")
def packaged_network():
    """``read(name)``: a fresh copy of the ``network`` entry of a packaged scenario
    file, its decimals as floats, whose shortest ``repr`` writes the file's own
    digits back when the entry is dumped to JSON."""
    from sgain.scenarios import _DIR, _FILES

    def read(name):
        return json.loads((_DIR / _FILES[name]).read_text())["network"]
    return read


@pytest.fixture(scope="session")
def chain_scenario():
    return sgain.make_scenario("chain-a")


@pytest.fixture(scope="session")
def chain_gains(chain_scenario):
    return chain_scenario.family.derive_gains(chain_scenario.derivation)


@pytest.fixture(scope="session")
def chain_operator(chain_gains):
    return sgain.build_gain_operator(chain_gains)


@pytest.fixture(scope="session")
def chain_certified(chain_gains):
    return sgain.certify(chain_gains)


@pytest.fixture(scope="session")
def traffic_scenario():
    return sgain.make_scenario("traffic")


@pytest.fixture(scope="session")
def traffic_gains(traffic_scenario):
    return traffic_scenario.family.derive_gains(traffic_scenario.derivation)


@pytest.fixture(scope="session")
def traffic_certified(traffic_gains):
    return sgain.certify(traffic_gains)


@pytest.fixture(scope="session")
def platoon_scenario():
    return sgain.make_scenario("lure-platoon")


@pytest.fixture(scope="session")
def platoon_gains(platoon_scenario):
    return platoon_scenario.family.derive_gains(platoon_scenario.derivation)
