"""The JSON reports of the CLI commands keep their full key set and value types.

Each command's report is reduced to its schema: a dict keeps its keys with
the schemas of their values, a scalar becomes its JSON type name, and a list
becomes the one schema all its items share (a one-item list) or, when they
differ, the list of its items' schemas ([v, m] pairs give ["float", "int"]).
"""

import json

import pytest

from bracketflow import catalog, save_bracket
from bracketflow.cli import main


def _schema(value):
    if isinstance(value, dict):
        return {k: _schema(v) for k, v in value.items()}
    if isinstance(value, list):
        items = [_schema(v) for v in value]
        return items[:1] if all(s == items[0] for s in items) else items
    return type(value).__name__


MATRIX = [["float"]]
VECTOR = ["float"]
FINGERPRINT = {
    "derived_dims": ["int"],
    "moment_eigs": VECTOR,
    "nilradical_dim": "int",
    "norm": "float",
    "ric_eigs": VECTOR,
    "ricstar_eigs": VECTOR,
    "scal": "float",
    "scal_star": "float",
}

SCHEMAS = {
    "catalog": (
        ["catalog", "h3"],
        {
            "bracket": {"dim": "int", "entries": [{"i": "int", "j": "int", "k": "int", "v": "float"}]},
            "dim": "int",
            "expected": {"flat": "bool", "soliton": "str", "type": "str"},
            "name": "str",
        },
    ),
    "classify": (
        ["classify", "--catalog", "s3"],
        {
            "curvature": {
                "H": VECTOR,
                "K": MATRIX,
                "M": MATRIX,
                "Ric": MATRIX,
                "RicStar": MATRIX,
                "normSq": "float",
                "scal": "float",
                "scalStar": "float",
            },
            "flat": "bool",
            "name": "str",
            "type": {
                "confidence": "str",
                "kind": "str",
                "notes": "str",
                "rank": "int",
                "sigma_a": "float",
                "witness": VECTOR,
            },
        },
    ),
    "stratum": (
        ["stratum", "--catalog", "h3"],
        {
            "ad_spectrum": [["float", "int"]],
            "beta_eigenvalues": VECTOR,
            "beta_norm_sq": "float",
            "gauge": {"in_nonneg": "bool", "neg_norm": "float", "v0_norm": "float"},
            "label_tol": "float",
            "name": "str",
            "residual": "float",
            "v_spectrum": [["float", "int"]],
        },
    ),
    "soliton-check": (
        ["soliton-check", "--catalog", "s3_lambda", "--lam", "0.5"],
        {
            "certificate": {
                "D": MATRIX,
                "c": "float",
                "kind": "str",
                "normalized": "bool",
                "residual": "float",
            },
            "name": "str",
        },
    ),
    "linearize": (
        ["linearize", "--catalog", "s3_lambda", "--lam", "0.5"],
        {
            "K_condition": "float",
            "P_fd_discrepancy": "float",
            "P_kernel_dim": "int",
            "P_kernel_expected_dim": "int",
            "P_kernel_residual": "float",
            "P_spectrum": VECTOR,
            "beta_eigenvalues": VECTOR,
            "commutator_norm": "float",
            "eigenvalues": VECTOR,
            "flow_fd_discrepancy": "float",
            "kbeta_orbit_dim": "int",
            "kernel_dim": "int",
            "kernel_matches_kbeta_orbit": "bool",
            "max_imag": "float",
            "name": "str",
            "tangent_dim": "int",
            "tangent_leak": "float",
        },
    ),
    "compare": (
        ["compare", "{a}", "{b}"],
        {
            "consistent_with_same_orbit": "bool",
            "distance": "float",
            "fingerprint_a": FINGERPRINT,
            "fingerprint_b": FINGERPRINT,
        },
    ),
    "uniqueness": (
        ["uniqueness", "--catalog", "h3", "--seeds", "2", "--t-end", "20"],
        {
            "converged": ["bool"],
            "f_tails": VECTOR,
            "group": "str",
            "max_fingerprint_distance": "float",
            "ric_eig_spread": VECTOR,
            "seed_value": "int",
            "seeds": "int",
            "soliton_residuals": VECTOR,
            "t_end": "float",
        },
    ),
    "collapse": (
        ["collapse", "--catalog", "e2", "--t-end", "30", "--gauge-diag", "1,1,1.5"],
        {
            "group": "str",
            "non_collapsed": "bool",
            "ric_bound_final": "float",
            "ric_bound_min": "float",
            "t_end": "float",
            "termination": "str",
            "type3_window": VECTOR,
        },
    ),
}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_report_schema(command, tmp_path, capsys):
    argv, expected = SCHEMAS[command]
    files = {"a": tmp_path / "a.json", "b": tmp_path / "b.json"}
    save_bracket(files["a"], catalog("h3").bracket)
    save_bracket(files["b"], catalog("h3").bracket.scaled(2.0))
    assert main([arg.format(**files) for arg in argv]) == 0
    assert _schema(json.loads(capsys.readouterr().out)) == expected
