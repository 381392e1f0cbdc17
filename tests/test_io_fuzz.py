"""The CLI's file boundary under mutated inputs.

Run configs, checkpoints, labelled CSVs and feature CSVs are mutated (keys
deleted, renamed or added; values swapped for another JSON type; sections
made scalars; rows made ragged; cells set to nan, inf or text). Edge-list
and json-tree taxonomies are mutated too (cycles, self-loops, two parents,
extra roots, bad weights, awkward names and line ends). `main` must never
raise, and a nonzero exit must print exactly one stderr line, starting with
"error:".
"""

import contextlib
import copy
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometric.cli import main

FOUR_LEAF = "a1\tA\na2\tA\nb1\tB\nb2\tB\nA\troot\nB\troot\n"
FEATURES = "id,f0,f1,f2\nr0,0.1,0.2,0.3\nr1,-1.0,0.5,2.0\n"
SCALARS = [None, True, 3, 2.5, "text"]
OTHER_VALUES = SCALARS + [[], {}, ["text", 1]]
BAD_CELLS = ["nan", "inf", "-inf", "text", ""]
# written as the bare literal, which JSON readers take as inf (json.dumps of
# inf would write the rejected constant Infinity instead)
OVERFLOW = "1e309"
FUZZ = settings(max_examples=40, deadline=None)
TAXONOMY_FUZZ = settings(max_examples=100, deadline=None)  # a cost run takes milliseconds


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
    ("config", ("train", "hidden"), [0]),
    ("checkpoint", ("model", "hidden"), [-3]),
    ("config", ("train", "lambda"), OVERFLOW),
    ("config", ("train", "beta"), OVERFLOW),
    ("config", ("train", "distance", "delta"), OVERFLOW),
    ("checkpoint", ("head",), {"n_classes": 4, "input_dim": 3,
                               "params": [OVERFLOW] + [0.0] * 15}),
    ("config", ("train", "seed"), 0),
])
def test_malformed_records_exit_2(inputs, kind, path, value):
    doc = copy.deepcopy(inputs[kind])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    case = inputs["root"] / f"bad_{kind}.json"
    case.write_text(json.dumps(doc).replace(f'"{OVERFLOW}"', OVERFLOW))
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


def fails(argv, message: str) -> None:
    """`main(argv)` exits 2 with one stderr line, an error holding `message`."""
    code, err = run_error(argv)
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1, (code, lines)
    assert lines[0].startswith("error: ") and message in lines[0], lines


def test_no_class_with_two_samples_exits_2(inputs):
    # the stratified split would leave the test side empty
    root = inputs["root"]
    (root / "two_leaf.tsv").write_text("a\troot\nb\troot\n")
    (root / "one_per_class.csv").write_text("f0,f1,label\n0.1,0.2,a\n0.3,-0.4,b\n")
    config = dict(inputs["config"], taxonomy_path=str(root / "two_leaf.tsv"),
                  dataset_path=str(root / "one_per_class.csv"))
    case = root / "one_per_class.json"
    case.write_text(json.dumps(config))
    out = root / "one_per_class_run"
    fails(["train", str(case), "--output-dir", str(out)], "no class has 2 or more samples")
    assert not out.exists()  # train writes nothing before its inputs pass


def test_rank_on_two_leaves_exits_2(inputs):
    # the triplet check runs inside `train`, after the split
    root = inputs["root"]
    (root / "two_leaf.tsv").write_text("a\troot\nb\troot\n")
    rows = "".join(f"{0.1 * i},{-0.2 * i},{label}\n" for i in range(4) for label in "ab")
    (root / "two_leaf.csv").write_text("f0,f1,label\n" + rows)
    config = dict(inputs["config"], taxonomy_path=str(root / "two_leaf.tsv"),
                  dataset_path=str(root / "two_leaf.csv"),
                  train=dict(inputs["config"]["train"], regularizer="rank"))
    case = root / "rank_two_leaf.json"
    case.write_text(json.dumps(config))
    out = root / "rank_two_leaf_run"
    fails(["train", str(case), "--output-dir", str(out)],
          "triplet sampling needs at least 3 classes")
    assert not out.exists()


@pytest.mark.parametrize("seeds, flags, message", [
    ([0, 1, 0], [], "seeds: seed 0 is repeated"),
    ([0], ["--seeds", "2,1,2"], "--seeds: seed 2 is repeated"),
])
def test_repeated_seed_exits_2(inputs, seeds, flags, message):
    # a repeated seed would train twice and count twice in the aggregate
    root = inputs["root"]
    case = root / "repeated_seed_config.json"
    case.write_text(json.dumps(dict(inputs["config"], seeds=seeds)))
    out = root / "repeated_seed_run"
    fails(["train", str(case), "--output-dir", str(out), *flags], message)
    assert not out.exists()


@pytest.mark.parametrize("fraction", [1.5, 1, 0, -0.25])
def test_test_fraction_outside_0_1_exits_2(inputs, fraction):
    root = inputs["root"]
    case = root / "fraction_config.json"
    case.write_text(json.dumps(dict(inputs["config"], test_fraction=fraction)))
    out = root / "fraction_run"
    fails(["train", str(case), "--output-dir", str(out)],
          f"test_fraction must lie strictly between 0 and 1, got {fraction}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "embed", "synth"])
def test_refused_allocation_exits_1(inputs, command):
    # 10**15 elements and more: beyond the 128 TiB user address space, so
    # the allocation is refused under any overcommit policy
    root = inputs["root"]
    out = root / f"huge_{command}"
    if command == "train":
        config = copy.deepcopy(inputs["config"])
        config["train"]["m"] = 10**15
        case = root / "huge_m_config.json"
        case.write_text(json.dumps(config))
        argv = ["train", str(case), "--output-dir", str(out)]
    elif command == "embed":
        argv = ["embed", inputs["tax"], "--dim", str(10**15), "--steps", "1",
                "--out", str(out)]
    else:
        argv = ["synth", inputs["tax"], "--per-class", str(10**15), "--out", str(out)]
    code, err = run_error(argv)
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)


def test_integer_too_large_for_a_float_exits_2(inputs):
    config = json.dumps(inputs["config"]).replace('"lambda": 1.0', f'"lambda": {10**400}')
    case = inputs["root"] / "huge_config.json"
    case.write_text(config)
    fails(["train", str(case), "--output-dir", str(inputs["root"] / "huge_run")],
          "'train.lambda' is too large for a float")


@pytest.mark.parametrize("command, flags, message", [
    ("embed", ["--seed", "-1"], "--seed: seed -1 must be >= 0"),
    ("synth", ["--seed", "-1"], "--seed: seed -1 must be >= 0"),
    ("train", ["--seeds", "1,-2"], "--seeds: seed -2 must be >= 0"),
    ("train", ["--seeds", "1,x"], "--seeds: '1,x' is not"),
    ("train", [], "seeds: seed -1 must be >= 0"),
    ("synth", ["--noise", "-1"], "noise must be non-negative and finite, got -1.0"),
    ("synth", ["--noise", "nan"], "noise must be non-negative and finite, got nan"),
    ("synth", ["--root-spread", "0"], "root_spread must be positive and finite, got 0.0"),
    ("synth", ["--root-spread", "inf"], "root_spread must be positive and finite, got inf"),
    ("train", ["--lambda", "nan"], "lambda must be nonnegative and finite, got nan"),
    ("train", ["--lambda", "inf"], "lambda must be nonnegative and finite, got inf"),
    ("embed", ["--delta", "inf"], "distance delta must be finite, got inf"),
])
def test_bad_numbers_name_their_input(inputs, command, flags, message):
    root = inputs["root"]
    out = root / f"bad_{command}_out"
    if command == "train":
        config = dict(inputs["config"], seeds=[0] if flags else [-1])
        case = root / "bad_seed_config.json"
        case.write_text(json.dumps(config))
        argv = ["train", str(case), "--output-dir", str(out)]
    else:
        argv = [command, inputs["tax"], "--out", str(out)]
    fails(argv + flags, message)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["config", "checkpoint", "json-tree"])
def test_deeply_nested_json_exits_2(tmp_path, kind):
    case = tmp_path / "nested.json"
    case.write_text("[" * 5000)
    features = tmp_path / "features.csv"
    features.write_text(FEATURES)
    argv = {"config": ["train", str(case)],
            "checkpoint": ["infer", str(case), str(features), "--out", str(tmp_path / "p")],
            "json-tree": ["cost", str(case), "--format", "json-tree",
                          "--out", str(tmp_path / "c")]}[kind]
    fails(argv, "nested too deeply")


def test_oversized_csv_cell_exits_2(inputs):
    case = inputs["root"] / "wide_features.csv"
    case.write_text("id,f0\nr0,1.0\nr1," + "1" * 200_000 + "\n")
    fails(["infer", inputs["checkpoint_path"], str(case),
           "--out", str(inputs["root"] / "p.csv")], "row 3: field larger than field limit")


# -- taxonomy files -----------------------------------------------------------

EDGES = (("a1", "A"), ("a2", "A"), ("b1", "B"), ("A", "root"), ("B", "root"))
CHAIN = ("a1", "A")  # the edges from leaf a1 up to the root
EDGE_MUTATIONS = ["cycle", "self-loop", "two-parents", "duplicate-edge", "second-root",
                  "chain-weight", "tab-in-name", "crlf", "empty"]
EDGE_WEIGHTS = ["0", "-1", "nan", "inf", "1e308", "2.5"]
TREE_MUTATIONS = ["weight", "chain-weight", "unknown-key", "children-null",
                  "duplicate-name", "empty-name", "tab-in-name", "padded-name",
                  "root-weight", "not-object", "crlf", "empty"]
# "1e999" stands for the JSON number 1e999, which Python reads as inf; 10**400
# is written as an integer, too large for a float
TREE_WEIGHTS = [None, [1], "2", True, False, 0, -1, math.nan, "1e999", 10**400, 1e308, 2.5]


def edge_list_text(mutations, weight: str) -> str:
    lines = [[child, parent] for child, parent in EDGES]
    for kind in mutations:
        if kind == "cycle":
            lines.append(["root", "a1"])
        elif kind == "self-loop":
            lines.append(["c", "c"])
        elif kind == "two-parents":
            lines.append(["a1", "B"])
        elif kind == "duplicate-edge":
            lines.append(list(lines[0]))
        elif kind == "second-root":
            lines.append(["c", "root2"])
        elif kind == "chain-weight":
            for line in lines:
                if line[0] in CHAIN:
                    line[2:] = [weight]
        elif kind == "tab-in-name":
            lines[2][0] = "b\t1"
    if "empty" in mutations:
        return ""
    return ("\r\n" if "crlf" in mutations else "\n").join(map("\t".join, lines)) + "\n"


def json_tree_text(mutations, weight, target: str) -> str:
    by_name = {}

    def tree(name):
        by_name[name] = node = {"name": name}
        kids = [tree(child) for child, parent in EDGES if parent == name]
        if kids:
            node["children"] = kids
        return node

    root = tree("root")
    for kind in mutations:
        node = by_name[target]
        if kind == "weight":
            node["weight"] = weight
        elif kind == "chain-weight":
            for name in CHAIN:
                by_name[name]["weight"] = weight
        elif kind == "unknown-key":
            node["weigth"] = 5
        elif kind == "children-null":
            node["children"] = None
        elif kind == "duplicate-name":
            by_name["b1"]["name"] = "a1"
        elif kind == "empty-name":
            node["name"] = ""
        elif kind == "tab-in-name":
            node["name"] = "a\t1"
        elif kind == "padded-name":
            node["name"] = f" {node['name']}"
        elif kind == "root-weight":
            root["weight"] = 1.0
        elif kind == "not-object":
            by_name["B"]["children"].append(5)
    if "empty" in mutations:
        return ""
    text = json.dumps(root, indent=1).replace('"1e999"', "1e999")
    return text.replace("\n", "\r\n") if "crlf" in mutations else text


def cost_of(root, text: str, fmt: str) -> int:
    """Exit code of `cost` on a taxonomy file; exit 0 must write finite costs."""
    tax, out = root / "case_taxonomy", root / "case_cost.csv"
    tax.write_text(text, newline="")
    code = run(["cost", str(tax), "--format", fmt, "--nodes", "all", "--out", str(out)])
    if code == 0:
        with open(out, newline="") as fh:
            cells = [cell for row in list(csv.reader(fh))[1:] for cell in row[1:]]
        assert cells and all(math.isfinite(float(cell)) for cell in cells)
    return code


@pytest.fixture(scope="module")
def tax_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("taxonomy")


@TAXONOMY_FUZZ
@given(mutations=st.lists(st.sampled_from(EDGE_MUTATIONS), max_size=3, unique=True),
       weight=st.sampled_from(EDGE_WEIGHTS))
def test_cost_on_mutated_edge_list(tax_dir, mutations, weight):
    cost_of(tax_dir, edge_list_text(mutations, weight), "edge-list")


@TAXONOMY_FUZZ
@given(mutations=st.lists(st.sampled_from(TREE_MUTATIONS), max_size=3, unique=True),
       weight=st.sampled_from(TREE_WEIGHTS), target=st.sampled_from(["a1", "A", "root"]))
def test_cost_on_mutated_json_tree(tax_dir, mutations, weight, target):
    cost_of(tax_dir, json_tree_text(mutations, weight, target), "json-tree")


@pytest.mark.parametrize("fmt, text, message", [
    ("json-tree", json_tree_text(["weight"], None, "a1"), "node 'a1': weight must be a number"),
    ("json-tree", json_tree_text(["weight"], [1], "a1"), "node 'a1': weight must be a number"),
    ("json-tree", json_tree_text(["weight"], "1e999", "a1"), "'a1' must be positive and finite"),
    ("json-tree", json_tree_text(["weight"], 10**400, "a1"),
     "node 'a1': weight is too large for a float"),
    ("json-tree", json_tree_text(["padded-name"], None, "a1"),
     "node name ' a1' has leading or trailing whitespace"),
    ("json-tree", json_tree_text(["weight"], "2", "a1"), "node 'a1': weight must be a number"),
    ("json-tree", json_tree_text(["weight"], True, "a1"), "node 'a1': weight must be a number"),
    ("json-tree", json_tree_text(["unknown-key"], None, "a1"), "node 'a1': unknown key 'weigth'"),
    ("edge-list", edge_list_text(["chain-weight"], "1e308"), "root to 'a1' is not finite"),
    ("json-tree", json_tree_text(["weight"], 1e308, "A"), "cost between 'a1' and 'a2' is not finite"),
], ids=["null-weight", "list-weight", "1e999-weight", "integer-1e400-weight", "padded-name",
        "string-weight", "boolean-weight", "misspelt-key", "overflowing-path",
        "overflowing-cost"])
def test_taxonomy_defects_exit_2(tmp_path, fmt, text, message):
    tax = tmp_path / "taxonomy"
    tax.write_text(text)
    fails(["cost", str(tax), "--format", fmt, "--out", str(tmp_path / "c.csv")], message)
