import argparse
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import riskbn
import riskbn.charts
import riskbn.cli
import riskbn.learning
from riskbn.analysis import bf_threshold_posterior, conditional_profile
from riskbn.cli import _Run, _build_parser, _read_ranking_csv, main
from riskbn.errors import RiskbnError
from riskbn.core import DagStructure, parse_model, serialize_model
from riskbn.data import build_default_generator, save_dataset, simulate_dataset
from riskbn.learning import default_prior

from helpers import chain_network, child_env, uniform_network


@pytest.fixture()
def generator_model(tmp_path):
    path = tmp_path / "generator.json"
    path.write_text(serialize_model(build_default_generator(0).network))
    return path


def small_structure(tmp_path):
    doc = {
        "variables": [
            {"name": "Previous_CB_Offending", "states": ["Yes", "No"], "kind": "outcome"},
            {"name": "Answer", "states": ["a", "b"], "kind": "game"},
        ],
        "edges": [["Previous_CB_Offending", "Answer"]],
    }
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    return path


# --- validate ---------------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(chain_network()))
    assert main(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_cycle_exit_2_names_cycle(tmp_path, capsys):
    doc = {
        "variables": [{"name": "A", "states": ["0", "1"]},
                      {"name": "B", "states": ["0", "1"]}],
        "edges": [["A", "B"], ["B", "A"]],
        "cpts": {},
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "A" in err and "B" in err and "->" in err


_DEEP = tuple(f"V{i}" for i in range(1100))  # past the default recursion limit


def test_validate_deep_chain_exit_0(tmp_path):
    path = tmp_path / "chain.json"
    dag = DagStructure(_DEEP, tuple(zip(_DEEP, _DEEP[1:])))
    path.write_text(serialize_model(uniform_network(_DEEP, dag)))
    assert main(["validate", str(path)]) == 0


def test_query_deep_chain_matches_the_matrix_power(tmp_path, capsys):
    # every link shares one slowly mixing CPT, so P(V1099 | V0=1) is row 1
    # of its 1099th power and still far from the stationary distribution
    link = np.array([[0.999, 0.001], [0.002, 0.998]])
    doc = json.loads(serialize_model(uniform_network(
        _DEEP, DagStructure(_DEEP, tuple(zip(_DEEP, _DEEP[1:]))))))
    doc["cpts"]["V0"]["rows"] = [[0.3, 0.7]]
    for name in _DEEP[1:]:
        doc["cpts"][name]["rows"] = link.tolist()
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--model", str(path), "--target", "V1099", "--evidence", "V0=1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = np.linalg.matrix_power(link, 1099)[1]
    for state, line in enumerate(lines[:2]):
        prefix = f"P(V1099={state} | evidence) = "
        assert line.startswith(prefix)
        assert float(line[len(prefix):]) == pytest.approx(expected[state], abs=1e-9)
    assert lines[2] == "P(evidence) = 0.7"


def test_validate_deep_cycle_exit_2(tmp_path, capsys):
    doc = {"variables": [{"name": n, "states": ["0", "1"]} for n in _DEEP],
           "edges": [[p, c] for p, c in zip(_DEEP, _DEEP[1:] + _DEEP[:1])]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "->" in capsys.readouterr().err


def test_validate_unreadable_exit_1(tmp_path):
    assert main(["validate", str(tmp_path / "missing.json")]) == 1


def test_validate_unnormalized_exit_2(tmp_path):
    doc = json.loads(serialize_model(chain_network()))
    doc["cpts"]["A"]["rows"] = [[0.5, 0.6]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("row", [["0.5", "0.5"], [True, False], [None, 1.0], [[0.7], [0.3]],
                                 [10 ** 400, 0]],
                         ids=["strings", "booleans", "null", "arrays", "past_float64"])
def test_validate_non_numeric_cpt_cells_exit_2(tmp_path, capsys, row):
    doc = json.loads(serialize_model(chain_network()))
    doc["cpts"]["A"]["rows"] = [row]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "rows of 'A' are not numeric" in capsys.readouterr().err


# --- fit --------------------------------------------------------------------------

def test_fit_empty_dataset_returns_priors(tmp_path):
    structure = small_structure(tmp_path)
    data = tmp_path / "empty.csv"
    data.write_text("Previous_CB_Offending,Answer\n")
    out = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--schema", str(structure),
                 "--out", str(out)]) == 0
    net = parse_model(out.read_text())
    assert net.cpts["Previous_CB_Offending"].rows[0, 0] == 0.1
    assert net.cpts["Answer"].rows[0, 0] == 0.5
    assert (tmp_path / "model.json.manifest.json").exists()


def test_fit_latent_writes_monotone_trace(tmp_path):
    structure = small_structure(tmp_path)
    rng = np.random.default_rng(0)
    lines = ["Previous_CB_Offending,Answer"]
    lines += [f",{'a' if rng.random() < 0.4 else 'b'}" for _ in range(80)]
    data = tmp_path / "latent.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "em.json"
    assert main(["fit", "--data", str(data), "--schema", str(structure),
                 "--latent", "Previous_CB_Offending", "--seed", "5",
                 "--em-restarts", "3", "--out", str(out)]) == 0
    trace = json.loads((tmp_path / "em.json.trace.json").read_text())
    assert trace["selected"] in (0, 1, 2)
    for restart in trace["log_likelihoods"]:
        assert (np.diff(restart) >= -1e-9).all()


def _counters(out):
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())["counters"]


def test_fit_manifest_counts_records_and_em_iterations(tmp_path):
    structure = small_structure(tmp_path)
    data = tmp_path / "meta.csv"
    # the fast answer (100 ms) is dropped; of the three kept records, two
    # miss a cell
    data.write_text("Previous_CB_Offending,Answer,rt_Answer\n"
                    "Yes,a,900\nNo,b,100\n,a,1200\nNo,,1000\n")
    out = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--schema", str(structure),
                 "--filter-rt", "800", "--out", str(out)]) == 0
    assert _counters(out) == {"records": 3, "incomplete_records": 2}

    # the latent's own cells do not make a record incomplete; one M-step
    # per restart at --em-max-iterations 1
    data.write_text("Previous_CB_Offending,Answer\n,a\nYes,b\n,\n")
    out = tmp_path / "em.json"
    assert main(["fit", "--data", str(data), "--schema", str(structure),
                 "--latent", "Previous_CB_Offending", "--em-restarts", "2",
                 "--em-max-iterations", "1", "--out", str(out)]) == 0
    trace = json.loads((tmp_path / "em.json.trace.json").read_text())
    assert _counters(out) == {"records": 3, "incomplete_records": 1,
                              "em_iterations": [1, 1], "selected_restart": trace["selected"]}


def test_fit_filters_applied(tmp_path, capsys):
    structure = small_structure(tmp_path)
    data = tmp_path / "meta.csv"
    data.write_text(
        "Previous_CB_Offending,Answer,rt_Answer\nYes,a,900\nNo,b,100\nNo,a,1200\n")
    out = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--schema", str(structure),
                 "--filter-rt", "800", "--out", str(out)]) == 0
    assert "1 flagged by response time" in capsys.readouterr().out


def test_fit_default_target_optional_on_custom_schema(tmp_path):
    schema = tmp_path / "chain.json"
    schema.write_text(serialize_model(chain_network()))
    data = tmp_path / "d.csv"
    data.write_text("A,B\n0,1\n")
    assert main(["fit", "--data", str(data), "--schema", str(schema),
                 "--out", str(tmp_path / "m.json")]) == 0


def test_fit_missing_data_file_exit_1(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "m.json")]) == 1


# --- strength ----------------------------------------------------------------------

def test_strength_csv_sorted_with_control(tmp_path, generator_model):
    out = tmp_path / "strength.csv"
    assert main(["strength", "--model", str(generator_model), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variable,score,is_control,above_control"
    rows = [line.split(",") for line in lines[1:]]
    scores = [float(r[1]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    control_rows = [r for r in rows if r[2] == "yes"]
    assert len(control_rows) == 1
    assert control_rows[0][0] == "A1Q1_PhotoSharing"
    game_rows = [r for r in rows if r[0].startswith("A") and r[2] == "no"
                 and not r[0].startswith("Age")]
    assert all(r[3] == "yes" for r in game_rows)
    assert out.with_suffix(".svg").exists()


def test_strength_rerun_byte_identical(tmp_path, generator_model):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["strength", "--model", str(generator_model), "--out", str(out_a)])
    main(["strength", "--model", str(generator_model), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".svg").read_bytes() == out_b.with_suffix(".svg").read_bytes()


def test_strength_unknown_target_exit_2(tmp_path, generator_model):
    assert main(["strength", "--model", str(generator_model), "--target", "Nope",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_strength_control_equal_to_target_exit_3(tmp_path, generator_model, capsys):
    assert main(["strength", "--model", str(generator_model), "--control",
                 "Previous_CB_Offending", "--out", str(tmp_path / "s.csv")]) == 3
    assert "control and target must differ" in capsys.readouterr().err
    # named, the built-in control is refused as the target like any other
    assert main(["strength", "--model", str(generator_model), "--target", "A1Q1_PhotoSharing",
                 "--control", "A1Q1_PhotoSharing", "--out", str(tmp_path / "s.csv")]) == 3
    assert "control and target must differ" in capsys.readouterr().err


def _manifest_config(out) -> dict:
    return json.loads(open(str(out) + ".manifest.json").read())["config"]


def test_strength_default_control_is_recorded(tmp_path, generator_model):
    out = tmp_path / "s.csv"
    assert main(["strength", "--model", str(generator_model), "--out", str(out)]) == 0
    assert _manifest_config(out)["control"] == "A1Q1_PhotoSharing"


def test_strength_on_the_default_control_runs_without_a_control(tmp_path, generator_model):
    out = tmp_path / "s.csv"
    assert main(["strength", "--model", str(generator_model), "--target", "A1Q1_PhotoSharing",
                 "--out", str(out)]) == 0
    assert _manifest_config(out)["control"] is None
    assert all(row.split(",")[2] == "no" for row in out.read_text().splitlines()[1:])


def test_strength_default_control_dropped_where_the_model_lacks_it(tmp_path):
    model = tmp_path / "chain.json"
    model.write_text(serialize_model(chain_network()))
    out = tmp_path / "s.csv"
    assert main(["strength", "--model", str(model), "--target", "B", "--out", str(out)]) == 0
    assert _manifest_config(out)["control"] is None


# --- profile ------------------------------------------------------------------------

def test_profile_matches_library_values(tmp_path, generator_model):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--model", str(generator_model),
                 "--source", "A3Q7_HowToHelpPol", "--out", str(out)]) == 0
    net = build_default_generator(0).network
    expected = dict(conditional_profile(net, "Previous_CB_Offending", "A3Q7_HowToHelpPol"))
    lines = out.read_text().splitlines()[1:]
    got = {row.split(",")[0]: float(row.split(",")[1]) for row in lines}
    assert got == pytest.approx(expected)


# --- multifactor ---------------------------------------------------------------------

def test_multifactor_two_pools_rows_and_thresholds(tmp_path, generator_model):
    out = tmp_path / "mf.csv"
    assert main(["multifactor", "--model", str(generator_model),
                 "--k-min", "1", "--k-max", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pool,k,max_posterior,evaluated,skipped,best_evidence"
    pools = [line.split(",")[0] for line in lines[1:]]
    assert pools == ["game"] * 3 + ["profiling"] * 3
    manifest = json.loads(open(str(out) + ".manifest.json").read())
    thresholds = manifest["config"]["thresholds"]
    substantial = next(v for k, v in thresholds.items() if "substantial" in k)
    strong = next(v for k, v in thresholds.items() if "strong" in k)
    assert substantial == pytest.approx(bf_threshold_posterior(0.1, 10 ** 0.5), abs=1e-12)
    assert strong == pytest.approx(bf_threshold_posterior(0.1, 10.0), abs=1e-12)
    svg = out.with_suffix(".svg").read_text()
    assert "substantial" in svg and "strong" in svg


@pytest.mark.parametrize("command", ["multifactor", "profiles"])
def test_target_without_yes_takes_its_last_state(tmp_path, generator_model, command):
    # as for profile: Yes when the target has it, otherwise its last state
    out = tmp_path / "t.csv"
    size = ["--k-max", "2"] if command == "multifactor" else ["--k", "2"]
    assert main([command, "--model", str(generator_model), "--target", "Age", *size,
                 "--out", str(out)]) == 0
    assert _manifest_config(out)["target_state"] == "16"
    if command == "multifactor":
        assert "P(Age = 16) by evidence count" in out.with_suffix(".svg").read_text()


def test_multifactor_cap_exceeded_exit_3(tmp_path, generator_model):
    assert main(["multifactor", "--model", str(generator_model),
                 "--max-evals", "5", "--out", str(tmp_path / "mf.csv")]) == 3


def test_multifactor_repeated_pool_name_counts_once(tmp_path, generator_model):
    # k is clipped to the distinct pool names, as for any pool smaller than --k-max
    out = tmp_path / "mf.csv"
    assert main(["multifactor", "--model", str(generator_model), "--pool", "Gender,Gender",
                 "--k-max", "2", "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["custom", "1"]]


# --- profiles -------------------------------------------------------------------------

def test_profiles_counts_sum_to_k_times_profiles(tmp_path, generator_model):
    out = tmp_path / "profiles.csv"
    assert main(["profiles", "--model", str(generator_model), "--k", "3",
                 "--threshold", "0.26", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in lines]
    manifest = json.loads(open(str(out) + ".manifest.json").read())
    assert manifest["config"]["k"] == 3
    # shares recompute the profile count: sum(counts) = k * n_profiles
    shares = [float(row.split(",")[3]) for row in lines]
    n_profiles = round(counts[0] / shares[0])
    assert sum(counts) == 3 * n_profiles


def test_profiles_threshold_one_notes_empty(tmp_path, generator_model, capsys):
    out = tmp_path / "profiles.csv"
    assert main(["profiles", "--model", str(generator_model), "--k", "2",
                 "--threshold", "1.0", "--out", str(out)]) == 0
    assert "no profiles" in capsys.readouterr().out
    assert "no profiles" in out.with_suffix(".svg").read_text()
    assert out.read_text().splitlines() == ["variable,state,count,share_of_profiles"]


# --- query ----------------------------------------------------------------------------

def test_query_posterior_with_evidence_flags(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(chain_network()))
    out = tmp_path / "query.json"
    assert main(["query", "--model", str(path), "--target", "A",
                 "--evidence", "B=1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "P(A=1 | evidence) = 0.658536585366" in printed
    payload = json.loads(out.read_text())
    assert payload["posterior"]["1"] == pytest.approx(0.27 / 0.41, abs=1e-12)
    assert payload["evidence_probability"] == pytest.approx(0.41, abs=1e-12)


def test_query_malformed_evidence_exit_2(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(chain_network()))
    assert main(["query", "--model", str(path), "--target", "A",
                 "--evidence", "B:1"]) == 2


def test_query_impossible_evidence_exit_3(tmp_path):
    doc = {
        "variables": [{"name": "A", "states": ["0", "1"]},
                      {"name": "B", "states": ["0", "1"]}],
        "edges": [],
        "cpts": {"A": {"parents": [], "rows": [[1.0, 0.0]]},
                 "B": {"parents": [], "rows": [[0.5, 0.5]]}},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--model", str(path), "--target", "B",
                 "--evidence", "A=1"]) == 3


# --- compare --------------------------------------------------------------------------

def _ranking_csv(path, rows):
    path.write_text("variable,score\n" + "\n".join(f"{v},{s}" for v, s in rows) + "\n")


def test_compare_identical_rho_one(tmp_path, capsys):
    a = tmp_path / "a.csv"
    _ranking_csv(a, [("x", 0.3), ("y", 0.2), ("z", 0.1)])
    assert main(["compare", str(a), str(a)]) == 0
    assert "spearman_rho=1" in capsys.readouterr().out


def test_compare_reversed_rho_minus_one(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _ranking_csv(a, [("x", 0.3), ("y", 0.2), ("z", 0.1)])
    _ranking_csv(b, [("x", 0.1), ("y", 0.2), ("z", 0.3)])
    assert main(["compare", str(a), str(b)]) == 0
    assert "spearman_rho=-1" in capsys.readouterr().out


def test_compare_variable_mismatch_exit_2(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _ranking_csv(a, [("x", 0.3), ("y", 0.2)])
    _ranking_csv(b, [("x", 0.3), ("zz", 0.2)])
    assert main(["compare", str(a), str(b)]) == 2


# --- simulate / summarize ----------------------------------------------------------------

def test_simulate_deterministic_and_sized(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--n", "224", "--seed", "9", "--out", str(out_a)]) == 0
    assert main(["simulate", "--n", "224", "--seed", "9", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 225
    manifest = json.loads(open(str(out_a) + ".manifest.json").read())
    assert manifest["seeds"]["seed"] == 9


def test_simulate_records_generated_seed(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["simulate", "--n", "5", "--out", str(out)]) == 0
    manifest = json.loads(open(str(out) + ".manifest.json").read())
    assert manifest["seeds"]["generated"] is True
    assert isinstance(manifest["seeds"]["seed"], int)


@pytest.mark.parametrize("n, rows", [(1, 1), (1, 3), (1, 8192), (8193, 1), (8193, 3),
                                     (8193, 8192), (100_000, 8192)])
@pytest.mark.parametrize("seed", [0, 42])
def test_simulate_file_is_the_same_in_any_block_size(tmp_path, monkeypatch, n, rows, seed):
    # one block of all n records draws each variable's n doubles in one call,
    # as a sampler without blocks does
    monkeypatch.setattr("riskbn.inference._CHUNK_ROWS", n)
    expected = save_dataset(simulate_dataset(n, seed)).encode()
    monkeypatch.setattr("riskbn.data._CHUNK_ROWS", rows)
    out = tmp_path / "d.csv"
    assert main(["simulate", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert manifest["outputs"] == {str(out): hashlib.sha256(expected).hexdigest()}


def test_simulate_beyond_array_limit_exit_3(tmp_path, capsys):
    # numpy refuses this shape before allocating anything
    assert main(["simulate", "--n", "99999999999999999999", "--seed", "1",
                 "--out", str(tmp_path / "d.csv")]) == 3
    assert capsys.readouterr().err.startswith("error: sample size 99999999999999999999")


def test_summarize_roundtrip(tmp_path):
    data = tmp_path / "d.csv"
    main(["simulate", "--n", "500", "--seed", "3", "--out", str(data)])
    out = tmp_path / "summary.csv"
    assert main(["summarize", "--data", str(data), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variable,state,count,percent"
    gender_rows = [l for l in lines if l.startswith("Gender,")]
    counts = [int(l.split(",")[2]) for l in gender_rows]
    assert sum(counts) == 500


def test_summarize_stdout_without_out(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("Gender\nMale\nFemale\n")
    assert main(["summarize", "--data", str(data)]) == 0
    assert "Gender,Male,1,50" in capsys.readouterr().out
    # stdout is the CSV text --out writes: a label with a comma is quoted
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "variables": [{"name": "Gender", "states": ["Fe,male", "Male"], "kind": "demographic"},
                      {"name": "Age", "states": ["12", "13"], "kind": "demographic"}],
        "edges": []}))
    data.write_text('Gender\n"Fe,male"\nMale\n')
    out = tmp_path / "m.csv"
    assert main(["summarize", "--data", str(data), "--schema", str(schema)]) == 0
    stdout = capsys.readouterr().out
    assert main(["summarize", "--data", str(data), "--schema", str(schema),
                 "--out", str(out)]) == 0
    assert stdout == out.read_text()
    assert stdout.splitlines() == ["variable,state,count,percent", 'Gender,"Fe,male",1,50',
                                   "Gender,Male,1,50", "Age,12,0,", "Age,13,0,"]


def test_byte_order_mark_is_dropped_from_every_text_input(tmp_path):
    data = tmp_path / "d.csv"
    main(["simulate", "--n", "300", "--seed", "5", "--out", str(data)])
    bom_data = tmp_path / "d_bom.csv"
    bom_data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    plain, marked = tmp_path / "m.csv", tmp_path / "m_bom.csv"
    assert main(["summarize", "--data", str(data), "--out", str(plain)]) == 0
    assert main(["summarize", "--data", str(bom_data), "--out", str(marked)]) == 0
    assert plain.read_bytes() == marked.read_bytes()
    model = tmp_path / "bom.json"
    model.write_bytes(b"\xef\xbb\xbf" + serialize_model(chain_network()).encode())
    assert main(["validate", str(model)]) == 0


def test_bad_byte_after_a_byte_order_mark_is_reported_at_its_file_offset(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"\xef\xbb\xbfGender\nF\xe9male\n")
    assert main(["summarize", "--data", str(data)]) == 2
    assert f"{data} is not UTF-8 text (byte 11)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "fit"])
def test_blank_first_line_exits_2(tmp_path, capsys, command):
    data = tmp_path / "b.csv"
    data.write_text("\n\n")
    out = tmp_path / ("o.csv" if command == "summarize" else "m.json")
    assert main([command, "--data", str(data), "--out", str(out)]) == 2
    assert "data row 0 has 0 cells, expected 1" in capsys.readouterr().err
    assert not out.exists()


def test_fit_manifest_digests_are_sha256_of_each_file(tmp_path):
    data = tmp_path / "d.csv"  # past one 1 MiB read block
    main(["simulate", "--n", "10000", "--seed", "4", "--out", str(data)])
    assert data.stat().st_size > 1 << 20
    out = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["inputs"] == {str(data): hashlib.sha256(data.read_bytes()).hexdigest()}
    assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted-header"])
def test_piped_cohort_gives_the_files_marginals_and_digest(tmp_path, quoted):
    data = tmp_path / "d.csv"
    main(["simulate", "--n", "5000", "--seed", "4", "--out", str(data)])
    if quoted:  # the CSV reader then reads every slice, from the pipe
        data.write_text(data.read_text().replace("Gender,", '"Gender",', 1))
    assert main(["summarize", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "riskbn.cli", "summarize", "--data", "/dev/stdin",
         "--out", str(tmp_path / "p.csv")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    stdout, stderr = proc.communicate(data.read_bytes(), timeout=120)
    assert proc.returncode == 0, stderr
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    assert manifest["inputs"] == {"/dev/stdin": hashlib.sha256(data.read_bytes()).hexdigest()}


# --- input boundary -------------------------------------------------------------------

def _bad_input_argv(case, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _ranking_csv(a, [("x", 0.3), ("y", 0.2), ("z", 0.1)])
    if case == "simulate_n_zero":
        return ["simulate", "--n", "0", "--seed", "1", "--out", str(tmp_path / "d.csv")]
    if case == "simulate_seed_negative":
        return ["simulate", "--n", "10", "--seed", "-3", "--out", str(tmp_path / "d.csv")]
    if case == "fit_em_jitter_nan_supervised":
        data = tmp_path / "d.csv"
        data.write_text("Previous_CB_Offending,Answer\nYes,a\n")
        return ["fit", "--data", str(data), "--schema", str(small_structure(tmp_path)),
                "--em-jitter", "nan", "--out", str(tmp_path / "m.json")]
    if case == "honesty_filter_without_no":
        structure = json.loads(small_structure(tmp_path).read_text())
        structure["variables"].append({"name": "honesty", "states": ["Y", "N"], "kind": "meta"})
        (tmp_path / "structure.json").write_text(json.dumps(structure))
        data = tmp_path / "d.csv"
        data.write_text("Previous_CB_Offending,Answer,honesty\nYes,a,Y\nNo,b,N\n")
        return ["fit", "--data", str(data), "--schema", str(tmp_path / "structure.json"),
                "--filter-honesty", "--out", str(tmp_path / "m.json")]
    if case.startswith("fit_"):
        data = tmp_path / "latent.csv"
        data.write_text("Previous_CB_Offending,Answer\n,a\n,b\n,a\n")
        flag, value = {"fit_seed_negative": ("--seed", "-1"),
                       "fit_em_jitter_nan": ("--em-jitter", "nan"),
                       "fit_em_jitter_five": ("--em-jitter", "5"),
                       "fit_ess_inf": ("--ess", "inf"),
                       "fit_target_unknown": ("--target", "Nope"),
                       "fit_latent_unknown": ("--latent", "Nope")}[case]
        return ["fit", "--data", str(data), "--schema", str(small_structure(tmp_path)),
                "--latent", "Previous_CB_Offending", "--em-restarts", "1", flag, value,
                "--out", str(tmp_path / "em.json")]
    if case == "compare_non_numeric":
        _ranking_csv(b, [("x", "abc"), ("y", 0.2), ("z", 0.1)])
        return ["compare", str(a), str(b)]
    if case == "compare_nan":
        _ranking_csv(b, [("x", "nan"), ("y", "nan"), ("z", "nan")])
        return ["compare", str(a), str(b)]
    if case == "compare_duplicate_variable":
        _ranking_csv(b, [("x", 0.3), ("y", 0.2), ("x", 0.1)])
        return ["compare", str(a), str(b)]
    if case == "compare_no_rows":
        b.write_text("variable,score\n")
        return ["compare", str(b), str(b)]
    if case == "compare_short_row":
        b.write_text("variable,score\nA,0.5\nB\n")
        return ["compare", str(b), str(b)]
    if case == "compare_long_row":
        b.write_text("variable,score\nA,0.5\nB,1,2,3\nC,0.7\n")
        return ["compare", str(b), str(b)]
    if case == "rt_overflow":
        data = tmp_path / "rt.csv"
        data.write_text("Gender,rt_A1Q1_PhotoSharing\nMale,900\nFemale,3000000000\n")
        return ["summarize", "--data", str(data)]
    model = tmp_path / "chain.json"
    model.write_text(serialize_model(chain_network()))
    if case == "validate_deep_json":
        model.write_text("[" * 100_000 + "]" * 100_000)
        return ["validate", str(model)]
    if case == "validate_long_integer":
        model.write_text('{"variables": [], "edges": [], "n": ' + "7" * 5000 + "}")
        return ["validate", str(model)]
    if case == "query_evidence_malformed":
        return ["query", "--model", str(model), "--target", "A", "--evidence", "B:1"]
    if case.startswith(("multifactor_", "profiles_")):
        command, *flags = {"multifactor_max_evals_nan": ("multifactor", "--max-evals", "nan"),
                           "multifactor_max_evals_inf": ("multifactor", "--max-evals", "inf"),
                           "multifactor_prior_p_nan": ("multifactor", "--prior-p", "nan"),
                           "multifactor_k_range_empty": ("multifactor", "--k-min", "3"),
                           "profiles_max_evals_zero": ("profiles", "--max-evals", "0"),
                           "profiles_threshold_nan": ("profiles", "--threshold", "nan")}[case]
        sizes = ["--k-max", "2"] if command == "multifactor" else ["--k", "1"]
        return [command, "--model", str(model), "--target", "A", "--target-state", "1",
                "--pool", "B", *sizes, *flags, "--out", str(tmp_path / "t.csv")]
    data = tmp_path / "latin1.csv"
    data.write_bytes("Gender\nMale\n".encode() + b"F\xe9male\n")
    return ["summarize", "--data", str(data)]


_BAD_INPUT_MESSAGES = {
    "simulate_n_zero": "--n must be a whole number at least 1, got 0",
    "simulate_seed_negative": "--seed must be a whole number at least 0, got -3",
    "fit_seed_negative": "--seed must be a whole number at least 0, got -1",
    "fit_em_jitter_nan": "--em-jitter must be in [0, 1), got nan",
    "fit_em_jitter_five": "--em-jitter must be in [0, 1), got 5",
    "fit_em_jitter_nan_supervised": "--em-jitter must be in [0, 1), got nan",
    "fit_ess_inf": "--ess must be a positive finite number, got inf",
    "fit_target_unknown": "--target 'Nope' is not in the schema",
    "fit_latent_unknown": "--latent 'Nope' is not in the schema",
    "compare_non_numeric": "data row 1",
    "compare_nan": "data row 1",
    "compare_duplicate_variable": "'x' repeats in data row 3",
    "compare_no_rows": "no data rows",
    "compare_short_row": "data row 2 has 1 cells, expected 2",
    "compare_long_row": "data row 2 has 4 cells, expected 2",
    "honesty_filter_without_no": "honesty filter needs a 'No' state; honesty has ['Y', 'N']",
    "non_utf8_data": "not UTF-8",
    "rt_overflow": "'3000000000' for column 'rt_A1Q1_PhotoSharing' in data row 2",
    "validate_deep_json": "JSON nests 100000 levels deep, too deep to parse (line 1, column 100000)",
    "validate_long_integer": "integer has more than 4300 digits (line 1, column 37)",
    "query_evidence_malformed": "--evidence entry 'B:1' is not Var=state",
    "multifactor_max_evals_nan": "--max-evals must be a whole number at least 1, got nan",
    "multifactor_max_evals_inf": "--max-evals must be a whole number at least 1, got inf",
    "multifactor_prior_p_nan": "--prior-p must be in (0, 1), got nan",
    "multifactor_k_range_empty": "--k-min 3 is above --k-max 2",
    "profiles_max_evals_zero": "--max-evals must be a whole number at least 1, got 0",
    "profiles_threshold_nan": "--threshold must be in [0, 1], got nan",
}

# One case per kind of flag value, rerun with --data/--model naming a missing
# file: the flag must still be refused first, with exit 2 rather than 1.
_FLAG_KIND_CASES = ["fit_seed_negative", "profiles_max_evals_zero", "fit_ess_inf",
                    "profiles_threshold_nan", "query_evidence_malformed",
                    "multifactor_k_range_empty", "fit_latent_unknown"]


@pytest.mark.parametrize("case", ["simulate_n_zero", "simulate_seed_negative",
                                  "fit_seed_negative", "fit_em_jitter_nan",
                                  "fit_em_jitter_five", "fit_em_jitter_nan_supervised",
                                  "fit_ess_inf", "fit_target_unknown", "fit_latent_unknown",
                                  "compare_non_numeric",
                                  "compare_nan", "compare_duplicate_variable",
                                  "compare_no_rows", "compare_short_row", "compare_long_row",
                                  "honesty_filter_without_no", "non_utf8_data", "rt_overflow",
                                  "validate_deep_json", "validate_long_integer",
                                  "query_evidence_malformed", "multifactor_max_evals_nan",
                                  "multifactor_max_evals_inf", "multifactor_prior_p_nan",
                                  "multifactor_k_range_empty", "profiles_max_evals_zero",
                                  "profiles_threshold_nan"]
                         + [f"{case}_missing_file" for case in _FLAG_KIND_CASES])
def test_bad_input_exits_2_without_traceback(tmp_path, case):
    case, missing, _ = case.partition("_missing_file")
    argv = _bad_input_argv(case, tmp_path)
    if missing:
        i = next(i for i, a in enumerate(argv) if a in ("--data", "--model")) + 1
        argv[i] = str(tmp_path / "missing")
    proc = subprocess.run([sys.executable, "-m", "riskbn.cli", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert _BAD_INPUT_MESSAGES[case] in proc.stderr
    assert proc.stderr.startswith("error: ")


# Valid flags for every subcommand on the chain model (B marked as a game
# question, so the CSV may carry its response time) and a 3-row CSV; None
# marks a positional argument.
_VALID_ARGV = {
    "validate": [(None, "chain.json")],
    "fit": [("--data", "d.csv"), ("--schema", "chain.json"), ("--dag", "chain.json"),
            ("--out", "m.json"), ("--target", "B"), ("--prior-p", "0.2"), ("--ess", "3"),
            ("--latent", "A"), ("--seed", "1"), ("--em-restarts", "1"),
            ("--em-max-iterations", "5"), ("--em-tolerance", "1e-6"),
            ("--em-jitter", "0.1"), ("--filter-rt", "0"), ("--filter-action", "blank")],
    "strength": [("--model", "chain.json"), ("--target", "B"), ("--control", "none"),
                 ("--candidates", "A"), ("--out", "s.csv")],
    "profile": [("--model", "chain.json"), ("--target", "B"), ("--source", "A"),
                ("--target-state", "1"), ("--out", "p.csv")],
    "multifactor": [("--model", "chain.json"), ("--target", "B"), ("--target-state", "1"),
                    ("--pool", "A"), ("--k-min", "1"), ("--k-max", "1"), ("--prior-p", "0.2"),
                    ("--max-evals", "100"), ("--out", "mf.csv")],
    "profiles": [("--model", "chain.json"), ("--target", "B"), ("--target-state", "1"),
                 ("--pool", "A"), ("--k", "1"), ("--threshold", "0.5"), ("--prior-p", "0.2"),
                 ("--max-evals", "100"), ("--out", "pr.csv")],
    "query": [("--model", "chain.json"), ("--target", "B"), ("--evidence", "A=1"),
              ("--out", "q.json")],
    "compare": [(None, "a.csv"), (None, "a.csv"), ("--out", "c.json")],
    "simulate": [("--n", "3"), ("--seed", "1"), ("--model", "chain.json"),
                 ("--out", "sim.csv")],
    "summarize": [("--data", "d.csv"), ("--schema", "chain.json"), ("--out", "sum.csv")],
}
_ADVERSARIAL = ["nan", "inf", "-inf", "-1", "0", "2.5", "1e308", "", "é", "B:1"]
_RESOLVED = {"multifactor": {"thresholds"}, "simulate": {"generator"}}


def _boundary_inputs(directory):
    doc = json.loads(serialize_model(chain_network()))
    doc["variables"][1]["kind"] = "game"
    (directory / "chain.json").write_text(json.dumps(doc))
    (directory / "d.csv").write_text("A,B,rt_B\n0,1,900\n1,1,\n0,0,1200\n")
    _ranking_csv(directory / "a.csv", [("x", 0.3), ("y", 0.2), ("z", 0.1)])


def _argv(command, replace=None, value=None):
    argv = [command]
    for i, (flag, default) in enumerate(_VALID_ARGV[command]):
        argv += ([flag] if flag else []) + [value if i == replace else default]
    return argv


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_valid_flags_run_and_manifest_config_is_every_flag(tmp_path, monkeypatch, command):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(_argv(command)) == 0
    if command == "validate":
        return
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
    out = dict(_VALID_ARGV[command])["--out"]
    manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
    assert set(manifest["config"]) == dests | _RESOLVED.get(command, set())


_WRITING_COMMANDS = sorted(c for c, flags in _VALID_ARGV.items() if "--out" in dict(flags))


def _out_index(command):
    return [flag for flag, _ in _VALID_ARGV[command]].index("--out")


@pytest.fixture()
def input_reads(monkeypatch):
    """Paths of the input files the CLI reads, in order."""
    reads = []
    open_input = riskbn.cli._Run.open

    def recording(run, path):
        reads.append(path)
        return open_input(run, path)
    monkeypatch.setattr(riskbn.cli._Run, "open", recording)
    return reads


@pytest.mark.parametrize("command", _WRITING_COMMANDS)
def test_empty_out_exits_2_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                     input_reads, command):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(_argv(command, _out_index(command), "")) == 2
    assert "--out must be a non-empty path" in capsys.readouterr().err
    assert input_reads == []


@pytest.mark.parametrize("out", ["t.svg", "T.SVG"])
@pytest.mark.parametrize("command", ["strength", "profile", "multifactor", "profiles"])
def test_chart_commands_refuse_svg_out_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                               input_reads, command, out):
    # the chart goes to --out with the suffix .svg and would overwrite the table
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(_argv(command, _out_index(command), out)) == 2
    assert f"--out must be a non-empty path not ending in .svg (the chart takes that suffix), " \
           f"got {out}" in capsys.readouterr().err
    assert input_reads == []
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("out", ["nodir/x.out", "."])
@pytest.mark.parametrize("command", _WRITING_COMMANDS)
def test_unwritable_out_exits_1_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                         input_reads, command, out):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(_argv(command, _out_index(command), out)) == 1
    assert f"cannot write --out {out}" in capsys.readouterr().err
    assert input_reads == []
    assert not (tmp_path / "nodir").exists()


# Each case names an --out one of whose files (the table, its chart, its
# manifest or the EM trace) is an input file: (that input, argv).
_OUT_NAMES_INPUT = {
    "summarize": ("d.csv", ["summarize", "--data", "d.csv", "--schema", "chain.json",
                            "--out", "./d.csv"]),
    "summarize_manifest": ("t.csv.manifest.json", ["summarize", "--data", "t.csv.manifest.json",
                                                   "--schema", "chain.json", "--out", "t.csv"]),
    "fit": ("d.csv", ["fit", "--data", "d.csv", "--schema", "chain.json", "--out", "d.csv"]),
    "fit_dag": ("g.json", ["fit", "--data", "d.csv", "--schema", "chain.json",
                           "--dag", "g.json", "--out", "g.json"]),
    "fit_trace": ("m.json.trace.json", ["fit", "--data", "b.csv", "--schema",
                                        "m.json.trace.json", "--latent", "A",
                                        "--em-restarts", "1", "--out", "m.json"]),
    "strength": ("chain.json", ["strength", "--model", "chain.json", "--target", "B",
                                "--out", "chain.json"]),
    "strength_chart": ("s.svg", ["strength", "--model", "s.svg", "--target", "B",
                                 "--out", "s.csv"]),
    "query_manifest": ("q.json.manifest.json", ["query", "--model", "q.json.manifest.json",
                                                "--target", "B", "--out", "q.json"]),
    "simulate": ("chain.json", ["simulate", "--n", "3", "--seed", "1", "--model", "chain.json",
                                "--out", "chain.json"]),
    "compare": ("b.csv", ["compare", "a.csv", "b.csv", "--out", "b.csv"]),
}


@pytest.mark.parametrize("case", sorted(_OUT_NAMES_INPUT))
def test_out_that_names_an_input_exits_2_and_leaves_the_input_unchanged(
        tmp_path, monkeypatch, capsys, input_reads, case):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for copy, source in [("g.json", "chain.json"), ("m.json.trace.json", "chain.json"),
                         ("s.svg", "chain.json"), ("q.json.manifest.json", "chain.json"),
                         ("t.csv.manifest.json", "d.csv"), ("b.csv", "a.csv")]:
        (tmp_path / copy).write_bytes((tmp_path / source).read_bytes())
    if case == "fit_trace":  # A is latent, so the cohort must not observe it
        (tmp_path / "b.csv").write_text("B\n0\n1\n")
    victim, argv = _OUT_NAMES_INPUT[case]
    before = (tmp_path / victim).read_bytes()
    assert main(argv) == 2
    assert "would overwrite the input file" in capsys.readouterr().err
    assert (tmp_path / victim).read_bytes() == before
    assert input_reads == []


@pytest.mark.parametrize("command", _WRITING_COMMANDS)
def test_manifest_records_peak_rss_in_kilobytes(tmp_path, monkeypatch, command):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    scale = 1024 if sys.platform == "darwin" else 1  # macOS reports bytes
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // scale
    assert main(_argv(command)) == 0
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // scale
    out = dict(_VALID_ARGV[command])["--out"]
    peak = json.loads((tmp_path / f"{out}.manifest.json").read_text())["peak_rss_kb"]
    assert type(peak) is int and 0 < before <= peak <= after


# Every writing command as _VALID_ARGV runs it (fit with --latent), and fit
# without --latent.
_WRITING_ARGV = {**{c: _argv(c) for c in _WRITING_COMMANDS},
                 "fit_observed": ["fit", "--data", "d.csv", "--schema", "chain.json",
                                  "--out", "m.json"]}


@pytest.mark.parametrize("case", sorted(_WRITING_ARGV))
def test_guarded_files_are_the_written_files_and_the_manifest_digests_them(
        tmp_path, monkeypatch, case):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    guarded = set()
    samefile = os.path.samefile

    def recording(path, source):
        guarded.add(str(path))
        return samefile(path, source)
    monkeypatch.setattr(os.path, "samefile", recording)
    before = {p.name for p in tmp_path.iterdir()}
    argv = _WRITING_ARGV[case]
    assert main(argv) == 0
    new = {p.name for p in tmp_path.iterdir()} - before
    assert new == guarded

    def sha256(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    out = argv[argv.index("--out") + 1]
    manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
    assert manifest["outputs"] == {name: sha256(name) for name in new
                                   if name != f"{out}.manifest.json"}
    assert manifest["inputs"] == {name: sha256(name) for name in argv if name in before}


def test_a_command_run_inside_another_leaves_its_record_alone(tmp_path, monkeypatch):
    # the second command runs between the first's input read and its
    # manifest; main keeps no state, so each manifest has its own inputs
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(serialize_model(chain_network()))
    second.write_text(serialize_model(uniform_network(["A", "B"], DagStructure(("A", "B"), ()))))
    chart, nested = riskbn.charts.hbar_chart, []

    def hbar_chart(*args, **kwargs):
        nested.append(main(["query", "--model", str(second), "--target", "B",
                            "--out", str(tmp_path / "q.json")]))
        return chart(*args, **kwargs)
    monkeypatch.setattr(riskbn.charts, "hbar_chart", hbar_chart)
    assert main(["strength", "--model", str(first), "--target", "B",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert nested == [0]
    for out, model in [("s.csv", first), ("q.json", second)]:
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {str(model): hashlib.sha256(model.read_bytes()).hexdigest()}


_NAME_LISTS = [("strength", "--candidates"), ("multifactor", "--pool"), ("profiles", "--pool")]


@pytest.mark.parametrize("value", ["", ",", "A,", "A,,B"])
@pytest.mark.parametrize("command,flag", _NAME_LISTS)
def test_empty_name_in_pool_or_candidates_exits_2_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, input_reads, command, flag, value):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    index = [f for f, _ in _VALID_ARGV[command]].index(flag)
    assert main(_argv(command, index, value)) == 2
    assert f"error: {flag} must be comma-separated variable names, none empty, got {value}" \
        in capsys.readouterr().err
    assert input_reads == []


@pytest.mark.parametrize("command,flag", _NAME_LISTS)
def test_manifest_records_pool_and_candidates_as_parsed_lists(tmp_path, monkeypatch,
                                                              command, flag):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    index = [f for f, _ in _VALID_ARGV[command]].index(flag)
    assert main(_argv(command, index, "A,A")) == 0
    out = dict(_VALID_ARGV[command])["--out"]
    config = json.loads((tmp_path / f"{out}.manifest.json").read_text())["config"]
    assert config[flag.lstrip("-")] == ["A"]


def test_fit_latent_unwritable_out_never_runs_em(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(riskbn.learning, "em_fit", lambda *args: calls.append(args))
    data = tmp_path / "latent.csv"
    data.write_text("Previous_CB_Offending,Answer\n,a\n,b\n")
    assert main(["fit", "--data", str(data), "--schema", str(small_structure(tmp_path)),
                 "--latent", "Previous_CB_Offending",
                 "--out", str(tmp_path / "nodir" / "m.json")]) == 1
    assert calls == []


@given(st.sampled_from([(command, i) for command, flags in _VALID_ARGV.items()
                        for i in range(len(flags))]),
       st.sampled_from(_ADVERSARIAL))
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_adversarial_flag_values_exit_with_documented_code(tmp_path, monkeypatch, case, value):
    _boundary_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    command, i = case
    try:
        code = main(_argv(command, i, value))
    except SystemExit as exc:  # argparse's own refusal, such as "-inf" read as a flag
        code = exc.code
        assert code == 2
    assert code in (0, 1, 2, 3)


@given(st.one_of(st.text(), st.lists(st.tuples(st.sampled_from(["x", "y", "x ", ""]),
                                               st.sampled_from(["0.5", "nan", "-inf", "1e999",
                                                                "abc", "", "2"])))
                 .map(lambda rows: "variable,score\n"
                      + "".join(f"{v},{s}\n" for v, s in rows))))
@example("variable,score\nx," + "9" * 5000 + "\n")
@example('variable,score\n"x\n')
@example("variable,score\n" + "x" * 200_000 + ",1\n")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ranking_csv_parses_or_raises_riskbn_error(tmp_path, text):
    path = tmp_path / "ranking.csv"
    path.write_text(text, encoding="utf-8")
    try:
        _read_ranking_csv(_Run(argparse.Namespace()), str(path))
    except RiskbnError:
        pass


# --- start-up ---------------------------------------------------------------------------

def test_cli_import_loads_no_network_modules():
    # every command pays for what riskbn.cli imports; SVG escaping needs no
    # URL, HTTP or TLS stack
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import riskbn.cli\n"
              "added = {'urllib.request', 'http.client', 'ssl'} & (set(sys.modules) - before)\n"
              "assert not added, sorted(added)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: importing the CLI must not load it,
    # and compare must work where it cannot be imported at all.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, riskbn.cli; assert 'scipy' not in sys.modules, 'riskbn loaded scipy'"],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _ranking_csv(a, [("w", 0.4), ("x", 0.3), ("y", 0.2), ("z", 0.1)])
    _ranking_csv(b, [("w", 0.4), ("x", 0.2), ("y", 0.3), ("z", 0.1)])
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import riskbn.cli\n"
              f"sys.exit(riskbn.cli.main(['compare', {str(a)!r}, {str(b)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("spearman_rho=0.8 p_value=0.2 n=4")


# Beyond core, errors and cli, the riskbn modules each command may import.
_COMMAND_MODULES = {
    "validate": set(),
    "query": {"inference"},
    # riskbn.analysis re-exports the names of riskbn.ranks
    "strength": {"inference", "analysis", "ranks", "charts"},
    "profile": {"inference", "analysis", "ranks", "charts"},
    "multifactor": {"inference", "analysis", "ranks", "charts"},
    "profiles": {"inference", "analysis", "ranks", "charts"},
    "compare": {"ranks"},
    "simulate": {"data", "inference"},
    "summarize": {"data", "inference"},
    "fit": {"data", "learning", "inference"},
}


def _child_modules(script, cwd=None) -> list[str]:
    """The last stdout line of a fresh interpreter that runs ``script`` and
    then prints the numpy and riskbn modules it holds."""
    script += ("\nprint(*sorted(m for m in sys.modules"
               " if m == 'numpy' or m.startswith('riskbn')))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_riskbn_loads_no_submodule_and_not_numpy():
    assert _child_modules("import sys, riskbn") == ["riskbn"]


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["fit", "--help"], ["fit"],
                                  ["simulate", "--n", "0", "--out", "d.csv"]],
                         ids=["version", "help", "fit-help", "missing-flag", "bad-value"])
def test_version_help_and_refusals_load_no_numpy(tmp_path, argv):
    script = ("import sys, riskbn.cli\n"
              "try:\n"
              f"    riskbn.cli.main({argv!r})\n"
              "except SystemExit:\n"
              "    pass")
    assert "numpy" not in _child_modules(script, cwd=tmp_path)


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_imports_only_its_modules(tmp_path, command):
    _boundary_inputs(tmp_path)
    script = f"import sys, riskbn.cli\nassert riskbn.cli.main({_argv(command)!r}) == 0"
    loaded = _child_modules(script, cwd=tmp_path)
    allowed = _COMMAND_MODULES[command] | {"core", "errors", "cli"}
    assert set(loaded) - {"numpy", "riskbn"} <= {f"riskbn.{m}" for m in allowed}
    if command == "compare":  # plain Python: no numpy, and so no riskbn.core
        assert "numpy" not in loaded


def test_every_public_name_and_submodule_resolves_to_its_modules_object():
    for name in riskbn._SUBMODULES:
        assert getattr(riskbn, name) is importlib.import_module(f"riskbn.{name}")
    for name in set(riskbn.__all__) - riskbn._SUBMODULES:
        home = importlib.import_module(f"riskbn.{riskbn._HOME[name]}")
        assert getattr(riskbn, name) is getattr(home, name)
    assert set(riskbn.__all__) | riskbn._SUBMODULES <= set(dir(riskbn))
    with pytest.raises(AttributeError):
        riskbn.no_such_name
