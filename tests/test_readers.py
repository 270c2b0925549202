"""Property tests of the one input reader over every table that reads an input
tree: a null entry is an absent one, an ignored entry is not read, and an entry
outside the table or a required one that is missing is an error named by its
dotted path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgain import FAMILIES, ParameterError, certificate, cli, families, scenarios, seqrules, sim
from sgain.seqrules import IGNORED, REQUIRED, read


def _scenario_file(name):
    with open(scenarios._DIR / scenarios._FILES[name]) as f:
        return seqrules.load_json(f)


_FILES = {name: _scenario_file(name) for name in ("chain-a", "traffic", "lure-platoon")}
_NETWORKS = {f["network"]["family"]: f for f in _FILES.values()}
_MU = {"preamble": [], "period": [1.0], "mu_lo": 1.0, "mu_hi": 1.0}
_BRACKET = {"lower": 0.1, "upper": 0.2, "k_used": 1, "satisfied": True, "lower_from": "symbol"}


def _required(table):
    """An object holding every required entry of a table whose readers read 1."""
    return {key: 1 for key, (_, default) in table.items() if default is REQUIRED}


# name: (table, an object the table reads, its path)
TABLES = {
    "config": (cli._CONFIG, {"network": {"scenario": "chain-a"}}, ""),
    "scenario reference": (cli._SCENARIO_REF, {"scenario": "chain-a"}, "network"),
    "scenario file": (scenarios._SCENARIO, _FILES["chain-a"], ""),
    "expected outcome": (scenarios._OUTCOME, {"kind": "certify"}, "expected_outcome"),
    "overrides": (scenarios._OVERRIDES, {}, ""),
    "analysis": (scenarios.ANALYSIS, {}, "analysis"),
    "description": (families._DESCRIPTION, _FILES["traffic"]["network"], "network"),
    "rule": (seqrules._RULE, {"cycle": [1]}, "coefficients.v"),
    "sim": (scenarios.SIM, {}, "sim"),
    "certificate": (certificate._CERTIFICATE, {"r_tilde": 0.5, "lambda_inf": 1.0, "rho": 0.1,
                                               "mu": _MU, "bracket": _BRACKET}, "certificate"),
    "certificate mu": (certificate._MU, _MU, "certificate.mu"),
    "certificate bracket": (certificate._BRACKET, _BRACKET, "certificate.bracket"),
    **{f"{name} coefficients": (cls.COEFFICIENTS,
                                _NETWORKS[name]["network"]["coefficients"] if name in _NETWORKS
                                else {}, "coefficients") for name, cls in FAMILIES.items()},
    **{f"{name} derivation": (cls.DERIVATION,
                              _NETWORKS[name]["derivation"] if name in _NETWORKS else {},
                              "derivation") for name, cls in FAMILIES.items()},
    **{f"input {kind}": (table, _required(table), "sim.input")
       for kind, table in sim._SIGNAL_ENTRIES.items()},
    **{f"x0 {kind}": (table, _required(table), "sim.x0")
       for kind, table in sim._X0_ENTRIES.items()},
}


def _without(obj, keys):
    return {k: v for k, v in obj.items() if k not in keys}


def test_every_example_is_read():
    for name, (table, obj, path) in TABLES.items():
        assert read(obj, table, path).keys() == {
            k for k, (_, default) in table.items() if default is not IGNORED}, name


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(TABLES)), data=st.data())
def test_null_is_absent_and_ignored_is_unread(name, data):
    """Nulling any optional entries reads as leaving them out, and an ignored
    entry with any value reads as its absence."""
    table, obj, path = TABLES[name]
    optional = sorted(k for k, (_, default) in table.items() if default is not REQUIRED)
    keys = data.draw(st.sets(st.sampled_from(optional)) if optional else st.just(set()))
    assert read({**obj, **dict.fromkeys(keys, None)}, table, path) == read(
        _without(obj, keys), table, path)
    ignored = [k for k, (_, default) in table.items() if default is IGNORED]
    if ignored:
        key = data.draw(st.sampled_from(ignored))
        value = data.draw(st.one_of(st.integers(), st.text(), st.lists(st.integers())))
        assert read({**obj, key: value}, table, path) == read(_without(obj, {key}), table, path)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(TABLES)), key=st.text(min_size=1, max_size=8),
       value=st.one_of(st.none(), st.integers(), st.text()))
def test_an_entry_outside_the_table_names_its_path(name, key, value):
    table, obj, path = TABLES[name]
    if key in table:
        return
    where = f"{path}.{key}" if path else key
    with pytest.raises(ParameterError) as exc:
        read({**obj, key: value}, table, path)
    assert str(exc.value) == f"'{where}': unknown entry"


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(TABLES)), null=st.booleans(), data=st.data())
def test_a_missing_required_entry_names_its_path(name, null, data):
    table, obj, path = TABLES[name]
    required = sorted(k for k, (_, default) in table.items() if default is REQUIRED)
    if not required:
        return
    key = data.draw(st.sampled_from(required))
    where = f"{path}.{key}" if path else key
    with pytest.raises(ParameterError) as exc:
        read({**obj, key: None} if null else _without(obj, {key}), table, path)
    assert str(exc.value) == f"'{where}': missing required entry"
