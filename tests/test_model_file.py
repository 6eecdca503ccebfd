"""model.json validation: schema checks in load_model and the CLI's exits.

A damaged model file must fail with SchemaMismatch, which the CLI turns
into exit code 1 and a one-line message, before any output is written.
"""

import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_rff import cli, data
from spectral_rff.errors import SchemaMismatch
from spectral_rff.features import NONSTATIONARY, features_for_mode
from spectral_rff.linalg import seeded_rng
from spectral_rff.measures import FrequencyBank, _decode_array, _encode_array
from spectral_rff.model import Hyperparams, fit_state, load_model, save_model


def write_model(path):
    """A small 2-d nonstationary model with standardization and names."""
    rng = seeded_rng(808)
    m, d = 4, 2
    bank = FrequencyBank(rng.standard_normal((m, d)),
                         rng.standard_normal((m, d)), stationary=False)
    x = rng.uniform(-1.0, 1.0, size=(12, d))
    y = np.sin(2.0 * x[:, 0]) + x[:, 1]
    stats = data.StandardizationStats(np.array([0.1, -0.2]),
                                      np.array([1.5, 0.5]), 0.3, 2.0)
    state = fit_state(features_for_mode(x, bank, NONSTATIONARY), y,
                      Hyperparams.from_variances(1.0, 0.1), bank,
                      standardization=stats, input_columns=["x1", "x2"])
    save_model(path, state)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_query(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2\n0.25,-0.5\n1,2\n-0.75,0.125\n")


def reencode(doc, key, fn):
    """Replace the encoded array doc["fit"][key] by fn of its values."""
    doc["fit"][key] = _encode_array(fn(_decode_array(doc["fit"][key])))


def with_entry(index, value):
    def fn(a):
        a[index] = value
        return a
    return fn


# each mutation breaks one rule load_model enforces
SCHEMA_BREAKS = {
    "r not square": lambda doc: reencode(doc, "r", lambda r: r[:, :-1]),
    "r wrong size": lambda doc: reencode(doc, "r", lambda r: r[:-1, :-1]),
    "r upper entry": lambda doc: reencode(doc, "r", with_entry((0, 3), 0.5)),
    "r zero diagonal": lambda doc: reencode(doc, "r", with_entry((2, 2), 0.0)),
    "r negative diagonal": lambda doc: reencode(doc, "r", with_entry((1, 1), -1.0)),
    "r nan": lambda doc: reencode(doc, "r", with_entry((4, 1), np.nan)),
    "alpha1 short": lambda doc: reencode(doc, "alpha1", lambda a: a[:7]),
    "alpha2 short": lambda doc: reencode(doc, "alpha2", lambda a: a[:3]),
    "input_mean short": lambda doc: doc["standardization"]["input_mean"].pop(),
    "input_std long": lambda doc: doc["standardization"]["input_std"].append(1.0),
    "input_std zero": lambda doc: doc["standardization"]["input_std"].__setitem__(0, 0.0),
    "input_columns short": lambda doc: doc["input_columns"].pop(),
    "no hyperparams": lambda doc: doc.pop("hyperparams"),
    "no log_sigma_n2": lambda doc: doc["hyperparams"].pop("log_sigma_n2"),
    "no fit": lambda doc: doc.pop("fit"),
    "no alpha2": lambda doc: doc["fit"].pop("alpha2"),
    "no bank": lambda doc: doc.pop("bank"),
    "no omega2": lambda doc: doc["bank"].pop("omega2"),
    "no output_std": lambda doc: doc["standardization"].pop("output_std"),
    "nan log_sigma_f2": lambda doc: doc["hyperparams"].update(log_sigma_f2=float("nan")),
    "inf output_mean": lambda doc: doc["standardization"].update(output_mean=float("inf")),
    "nan input_mean": lambda doc: doc["standardization"]["input_mean"].__setitem__(1, float("nan")),
    "string jitter": lambda doc: doc["fit"].update(jitter="0"),
    "huge integer": lambda doc: doc["hyperparams"].update(log_sigma_n2=10 ** 400),
    "variance overflows": lambda doc: doc["hyperparams"].update(log_sigma_n2=1000.0),
    "variance underflows": lambda doc: doc["hyperparams"].update(log_sigma_f2=-1000.0),
    "boolean format_version": lambda doc: doc.update(format_version=True),
    "float format_version": lambda doc: doc.update(format_version=1.0),
    "bad base64": lambda doc: doc["fit"]["alpha1"].update(data="not base64!"),
    "shape data disagree": lambda doc: doc["fit"]["alpha1"].update(shape=[9]),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_BREAKS))
def test_load_model_rejects_each_schema_break(tmp_path, name):
    path = tmp_path / "model.json"
    doc = write_model(path)
    SCHEMA_BREAKS[name](doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_load_model_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps([write_model(path)]))
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_load_model_accepts_the_file_save_model_writes(tmp_path):
    path = tmp_path / "model.json"
    write_model(path)
    state = load_model(path)
    assert state.input_columns == ["x1", "x2"]
    assert state.r.shape == (8, 8) and state.alpha2.shape == (8,)


def predict_with_model_doc(tmp_path, capsys, doc):
    model_path = tmp_path / "damaged.json"
    model_path.write_text(json.dumps(doc))
    query = tmp_path / "query.csv"
    write_query(query)
    out = tmp_path / "out"
    code = cli.main(["predict", "--model", str(model_path), "--data",
                     str(query), "--out-dir", str(out)])
    return code, capsys.readouterr().err, out


def assert_clean_refusal(code, err, out):
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (out / "predictions.csv").exists()


def test_predict_without_hyperparams_exits_1_without_traceback(tmp_path, capsys):
    doc = write_model(tmp_path / "model.json")
    del doc["hyperparams"]
    assert_clean_refusal(*predict_with_model_doc(tmp_path, capsys, doc))


def test_predict_with_short_input_std_is_refused_not_broadcast(tmp_path, capsys):
    doc = write_model(tmp_path / "model.json")
    doc["standardization"]["input_std"] = doc["standardization"]["input_std"][:1]
    assert_clean_refusal(*predict_with_model_doc(tmp_path, capsys, doc))


# --- fuzzing -------------------------------------------------------------

def node_paths(node, prefix=()):
    """Paths (key and index tuples) to every node below the root."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(node_paths(child, prefix + (key,)))
    return paths


def parent_of(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


def make_r_untriangular(doc, draw):
    k = _decode_array(doc["fit"]["r"]).shape[0]
    i = draw(st.integers(0, k - 2))
    j = draw(st.integers(i + 1, k - 1))
    reencode(doc, "r", with_entry((i, j), draw(st.floats(-2.0, 2.0))))


def mutate(doc, draw):
    """One random structural damage to a model document, in place."""
    kind = draw(st.sampled_from(["drop", "resize", "nan", "retype"]))
    paths = node_paths(doc)
    if kind == "drop":
        paths = [p for p in paths if isinstance(parent_of(doc, p), dict)]
    elif kind == "resize":
        paths = [p for p in paths if isinstance(parent_of(doc, p)[p[-1]], list)]
    path = draw(st.sampled_from(paths))
    parent = parent_of(doc, path)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "resize":
        items = parent[path[-1]]
        size = draw(st.integers(0, len(items) + 2))
        filler = items[-1] if items else 1.0
        parent[path[-1]] = (items + [filler] * size)[:size]
    elif kind == "nan":
        parent[path[-1]] = float("nan")
    else:
        parent[path[-1]] = draw(st.sampled_from(
            ["x", {}, [], None, True, -1, 0.0, 10 ** 400]))


@pytest.fixture(scope="module")
def model_and_query(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    doc = write_model(base / "model.json")
    query = base / "query.csv"
    write_query(query)
    return doc, str(query)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fuzzed_model_file_only_ever_exits_0_or_1(model_and_query, fuzz):
    doc, query = model_and_query
    doc = copy.deepcopy(doc)
    if fuzz.draw(st.booleans()):
        make_r_untriangular(doc, fuzz.draw)
    for _ in range(fuzz.draw(st.integers(0, 2))):
        mutate(doc, fuzz.draw)
    with tempfile.TemporaryDirectory() as work:
        model_path = os.path.join(work, "model.json")
        with open(model_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(work, "out")
        code = cli.main(["predict", "--model", model_path, "--data", query,
                         "--out-dir", out])
        assert code in (0, 1)
        assert os.path.exists(os.path.join(out, "predictions.csv")) == (code == 0)
