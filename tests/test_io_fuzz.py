"""The CLI's file boundary under mutated inputs.

Run configs, checkpoints, labelled CSVs and feature CSVs are mutated (keys
deleted, renamed or added; values swapped for another JSON type; sections
made scalars; rows made ragged; cells set to nan, inf or text). `main` must
never raise, and a nonzero exit must print exactly one stderr line, starting
with "error:".
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometric.cli import main

FOUR_LEAF = "a1\tA\na2\tA\nb1\tB\nb2\tB\nA\troot\nB\troot\n"
FEATURES = "id,f0,f1,f2\nr0,0.1,0.2,0.3\nr1,-1.0,0.5,2.0\n"
SCALARS = [None, True, 3, 2.5, "text"]
OTHER_VALUES = SCALARS + [[], {}, ["text", 1]]
BAD_CELLS = ["nan", "inf", "-inf", "text", ""]
FUZZ = settings(max_examples=40, deadline=None)


def run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    tax = root / "tax.tsv"
    tax.write_text(FOUR_LEAF)
    data = root / "data.csv"
    assert run(["synth", str(tax), "--per-class", "6", "--dims", "3", "--seed", "1",
                "--out", str(data)]) == 0
    config = {
        "train": {"lambda": 1.0, "m": 3, "architecture": "mlp", "hidden": [4],
                  "epochs": 2, "batch_size": 8, "include_internal_prototypes": False,
                  "distance": {"kind": "euclidean", "delta": 0.1},
                  "optimizer": {"kind": "adam", "lr": 0.01}},
        "taxonomy_path": str(tax), "dataset_path": str(data),
        "output_dir": str(root / "run"), "seeds": [0], "test_fraction": 0.25,
    }
    (root / "config.json").write_text(json.dumps(config))
    assert run(["train", str(root / "config.json")]) == 0
    ckpt = root / "run" / "checkpoint_seed0.json"
    return {"root": root, "tax": str(tax), "data": data.read_text(), "config": config,
            "checkpoint": json.loads(ckpt.read_text()), "checkpoint_path": str(ckpt)}


def json_paths(doc, path=()):
    """Paths to the nodes of a JSON document; arrays by first and last item."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for i in sorted({0, len(doc) - 1}):
            yield from json_paths(doc[i], path + (i,))


def mutate_json(doc, path, kind, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value if kind in ("swap", "scalar") else doc
    *outer, last = path
    parent = doc
    for step in outer:
        parent = parent[step]
    node = parent[last]
    if kind == "delete" or (kind == "rename" and isinstance(parent, list)):
        del parent[last]
    elif kind == "rename":
        parent[f"{last}_renamed"] = parent.pop(last)
    elif kind == "add":  # into the innermost object on the path
        target = node if isinstance(node, dict) else parent
        (target if isinstance(target, dict) else doc)["added"] = value
    elif kind == "swap":
        parent[last] = value if type(value) is not type(node) else "text"
    else:  # scalar
        parent[last] = value
    return doc


def mutate_csv(text, row, col, kind, cell):
    rows = [line.split(",") for line in text.strip().split("\n")]
    cells = rows[row % len(rows)]
    if kind == "drop":
        cells.pop(col % len(cells))
    elif kind == "extra":
        cells.append("1.0")
    else:
        cells[col % len(cells)] = cell
    return "\n".join(",".join(r) for r in rows) + "\n"


def json_mutations(doc):
    return st.tuples(st.sampled_from(list(json_paths(doc))),
                     st.sampled_from(["delete", "rename", "add", "swap", "scalar"]),
                     st.sampled_from(OTHER_VALUES))


CSV_MUTATIONS = st.tuples(st.integers(0, 200), st.integers(0, 20),
                          st.sampled_from(["drop", "extra", "cell"]),
                          st.sampled_from(BAD_CELLS))


@FUZZ
@given(data=st.data())
def test_train_on_mutated_run_config(inputs, data):
    path, kind, value = data.draw(json_mutations(inputs["config"]))
    case = inputs["root"] / "case_config.json"
    case.write_text(json.dumps(mutate_json(inputs["config"], path, kind, value)))
    run(["train", str(case), "--output-dir", str(inputs["root"] / "case_run")])


@FUZZ
@given(data=st.data())
def test_infer_on_mutated_checkpoint(inputs, data):
    path, kind, value = data.draw(json_mutations(inputs["checkpoint"]))
    case = inputs["root"] / "case_checkpoint.json"
    case.write_text(json.dumps(mutate_json(inputs["checkpoint"], path, kind, value)))
    features = inputs["root"] / "features.csv"
    features.write_text(FEATURES)
    run(["infer", str(case), str(features), "--out", str(inputs["root"] / "p.csv")])


@FUZZ
@given(mutation=CSV_MUTATIONS)
def test_eval_on_mutated_labelled_csv(inputs, mutation):
    case = inputs["root"] / "case_data.csv"
    case.write_text(mutate_csv(inputs["data"], *mutation))
    run(["eval", inputs["checkpoint_path"], str(case), inputs["tax"],
         "--out", str(inputs["root"] / "case_eval")])


@FUZZ
@given(mutation=CSV_MUTATIONS)
def test_infer_on_mutated_feature_csv(inputs, mutation):
    case = inputs["root"] / "case_features.csv"
    case.write_text(mutate_csv(FEATURES, *mutation))
    run(["infer", inputs["checkpoint_path"], str(case),
         "--out", str(inputs["root"] / "p.csv")])


@pytest.mark.parametrize("kind, path, value", [
    ("config", ("train", "lamda"), 0.0),
    ("config", ("seed",), 3),
    ("config", ("train", "optimizer"), 3),
    ("config", ("train", "distance"), "huber"),
    ("config", ("train",), 5),
    ("config", ("seeds",), 3),
    ("config", ("train", "include_internal_prototypes"), "false"),
    ("checkpoint", ("model",), []),
    ("checkpoint", ("distance",), "huber"),
    ("checkpoint", ("head",), 4),
])
def test_malformed_records_exit_2(inputs, kind, path, value):
    doc = copy.deepcopy(inputs[kind])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    case = inputs["root"] / f"bad_{kind}.json"
    case.write_text(json.dumps(doc))
    features = inputs["root"] / "features.csv"
    features.write_text(FEATURES)
    argv = (["train", str(case), "--output-dir", str(inputs["root"] / "bad_run")]
            if kind == "config" else
            ["infer", str(case), str(features), "--out", str(inputs["root"] / "p.csv")])
    assert run(argv) == 2


def test_infer_rejects_a_nan_feature(inputs):
    case = inputs["root"] / "nan_features.csv"
    case.write_text(FEATURES.replace("0.2", "nan"))
    assert run(["infer", inputs["checkpoint_path"], str(case),
                "--out", str(inputs["root"] / "p.csv")]) == 2


def run_error(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("path, value, named", [
    (("taxonomy", "nodes", 1, "parent"), 1.9, "taxonomy.nodes[1].parent"),
    (("taxonomy", "nodes", 1, "weight"), "1.0", "taxonomy.nodes[1].weight"),
    (("taxonomy", "nodes", 1, "colour"), "red", "taxonomy.nodes[1].colour"),
    (("prototypes", "coords", 0, 1), True, "prototypes.coords"),
])
def test_checkpoint_fields_read_strictly(inputs, path, value, named):
    doc = copy.deepcopy(inputs["checkpoint"])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    case = inputs["root"] / "strict_checkpoint.json"
    case.write_text(json.dumps(doc))
    features = inputs["root"] / "features.csv"
    features.write_text(FEATURES)
    code, err = run_error(["infer", str(case), str(features),
                           "--out", str(inputs["root"] / "p.csv")])
    assert code == 2 and named in err, err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constants_exit_2(inputs, constant):
    config = json.dumps(inputs["config"]).replace('"lambda": 1.0', f'"lambda": {constant}')
    assert constant in config
    case = inputs["root"] / "nan_config.json"
    case.write_text(config)
    code, err = run_error(["train", str(case), "--output-dir",
                           str(inputs["root"] / "nan_run")])
    assert code == 2 and f"constant {constant}" in err, err

    ckpt = json.dumps(inputs["checkpoint"]).replace('"delta": 0.1', f'"delta": {constant}')
    assert constant in ckpt
    case = inputs["root"] / "nan_checkpoint.json"
    case.write_text(ckpt)
    features = inputs["root"] / "features.csv"
    features.write_text(FEATURES)
    code, err = run_error(["infer", str(case), str(features),
                           "--out", str(inputs["root"] / "p.csv")])
    assert code == 2 and f"constant {constant}" in err, err
