"""The names the benchmark uses must exist in the package.

``perfbench/tracer.py`` looks every ``SPANS`` entry up with ``getattr``
when a traced run starts, and ``perfbench/run.py`` and ``child.py`` call
package functions to write inputs and check outputs, so a refactor that
moves, renames or deletes one of those names breaks every benchmark run.
The scripts are read as text here, not imported, so this check leaves
``perfbench/`` untouched.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def traced_spans():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


@pytest.mark.parametrize("module,attr", traced_spans())
def test_every_traced_span_resolves(module, attr):
    mod = importlib.import_module(f"spectral_rff.{module}")
    assert callable(getattr(mod, attr, None)), f"spectral_rff.{module}.{attr}"


@pytest.mark.parametrize("module", ["model", "training"])
def test_feature_map_is_imported_by_name_where_it_is_traced(module):
    from spectral_rff import features
    mod = importlib.import_module(f"spectral_rff.{module}")
    assert mod.features_for_mode is features.features_for_mode


def package_names_used(script):
    """(module, attribute) pairs of spectral_rff that a script imports or uses.

    ``from spectral_rff.m import a`` gives (m, a); ``from spectral_rff
    import m`` gives (m, None), and each ``m.a`` in the same file (m, a).
    """
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    modules, names = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if node.module == "spectral_rff":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
                names.add((alias.name, None))
        elif node.module.startswith("spectral_rff."):
            module = node.module.split(".", 1)[1]
            names.update((module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return sorted(names, key=str)


BENCHMARK_NAMES = [(script, module, attr) for script in ("run.py", "child.py")
                   for module, attr in package_names_used(script)]


def test_the_benchmark_name_scan_sees_the_known_uses():
    expected = {("run.py", "benchmarks", "SyntheticSpec"),
                ("run.py", "benchmarks", "gen_chirp"),
                ("run.py", "data", "save_dataset_csv"),
                ("run.py", "data", "Dataset"),
                ("run.py", "linalg", "seeded_rng"),
                ("run.py", "model", "load_model"),
                ("child.py", "cli", "apply_thread_cap")}
    assert expected <= set(BENCHMARK_NAMES)


@pytest.mark.parametrize("script,module,attr", BENCHMARK_NAMES)
def test_every_name_the_benchmark_uses_resolves(script, module, attr):
    mod = importlib.import_module(f"spectral_rff.{module}")
    if attr is not None:
        assert hasattr(mod, attr), f"{script} uses spectral_rff.{module}.{attr}"


@pytest.mark.parametrize("mode", ["stationary_learned", "nonstationary_learned"])
def test_a_gradient_step_makes_one_inverse_and_no_wide_solves(monkeypatch, mode):
    # the traced span training.solve_triangular measures the one explicit
    # R^-1 of a step; phi G comes from GEMM-class kernels, so no linalg
    # solve may take n right-hand sides. The step factors the smaller of
    # the 2m x 2m and n x n Gram systems once and takes alpha2 from that
    # factor by one one-column solve.
    from spectral_rff import linalg, training
    from spectral_rff.measures import FrequencyBank
    from spectral_rff.model import Hyperparams

    inverses, columns, factored, factors = [], [], [], []

    def counting(real, log):
        def wrapper(r, b, **kwargs):
            log.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return real(r, b, **kwargs)
        return wrapper

    def counting_factor(real):
        def wrapper(a, *args, **kwargs):
            factors.append(np.shape(a))
            return real(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "solve_triangular",
                        counting(training.solve_triangular, inverses))
    for name in ("solve_lower", "solve_upper"):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name), columns))
    monkeypatch.setattr(linalg, "solve_factored",
                        counting(linalg.solve_factored, factored))
    monkeypatch.setattr(linalg, "cholesky", counting_factor(linalg.cholesky))
    rng = np.random.default_rng(5)
    for n, m in ((50, 30), (80, 30)):   # 2m > n and n > 2m
        for log in (inverses, columns, factored, factors):
            log.clear()
        omega = [rng.standard_normal((m, 1)) for _ in range(2)]
        bank = (FrequencyBank(omega[0], stationary=True) if mode == "stationary_learned"
                else FrequencyBank(*omega, stationary=False))
        x = rng.uniform(-1.0, 1.0, (n, 1))
        training.lml_gradient(x, np.sin(3.0 * x[:, 0]), bank,
                              Hyperparams.from_variances(1.0, 0.1))
        assert len(inverses) == 1
        assert all(c == 1 for c in columns)
        assert factored == [1]
        assert factors == [(min(n, 2 * m),) * 2]


def state_reads(script, function):
    """Dotted attribute chains a perfbench function reads off ``state``."""
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == function)
    chains = set()
    for node in ast.walk(fn):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "state":
            chains.add(".".join(reversed(parts)))
    return sorted(chains)


REFERENCE_READS = state_reads("run.py", "reference_predict")


def test_the_state_read_scan_sees_the_known_fields():
    assert {"r", "alpha2", "bank", "hyper", "standardization"} <= set(REFERENCE_READS)


@pytest.fixture(scope="module")
def loaded_state(tmp_path_factory):
    from spectral_rff.data import StandardizationStats
    from spectral_rff.features import features_for_mode
    from spectral_rff.measures import FrequencyBank
    from spectral_rff.model import Hyperparams, fit_state, load_model, save_model

    rng = np.random.default_rng(3)
    bank = FrequencyBank(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)),
                         stationary=False)
    x = rng.uniform(-1.0, 1.0, (12, 1))
    state = fit_state(features_for_mode(x, bank), np.sin(3.0 * x[:, 0]),
                      Hyperparams.from_variances(1.0, 0.1), bank,
                      StandardizationStats(np.zeros(1), np.ones(1), 0.0, 1.0), ["t"])
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, state)
    return load_model(path)


@pytest.mark.parametrize("chain", REFERENCE_READS)
def test_every_model_field_the_reference_predictor_reads_exists(loaded_state, chain):
    # perfbench checks every predict_200k run against reference_predict, so
    # a FitState rename must fail here first
    node = loaded_state
    for attr in chain.split("."):
        assert hasattr(node, attr), f"perfbench/run.py reads state.{chain}"
        node = getattr(node, attr)


@pytest.mark.parametrize("mode", ["stationary_learned", "nonstationary_learned"])
def test_train_calls_the_traced_step_functions_once_per_step(monkeypatch, tmp_path, mode):
    # the tracer wraps training.adam_step and training.apply_gaussian_dropout
    # by module attribute, so an inlined copy would leave its span resolving
    # but counting no calls
    from spectral_rff import data, training

    calls = {"adam_step": 0, "apply_gaussian_dropout": 0, "features_for_mode": 0}

    def counting(name):
        real = getattr(training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training, name, counting(name))
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (40, 1))
    dataset, _ = data.standardize(data.Dataset(x, np.sin(3.0 * x[:, 0]), ["x"], "y"))
    config = training.TrainConfig(mode=mode, m=4, learning_rate=0.05, max_steps=7,
                                  eval_every=2, patience=10, dropout_sigma_p=0.05)
    _, trace = training.train(dataset, config)
    trace.to_csv(tmp_path / "trace.csv")
    steps = len((tmp_path / "trace.csv").read_text().splitlines()) - 1
    assert steps == 7 and len(trace.val_history) == 3
    # one map per step, per validation round and for the final fit: the
    # per-layer metrics read the map's span as nested in the step's
    assert calls == {"adam_step": steps, "apply_gaussian_dropout": steps,
                     "features_for_mode": steps + len(trace.val_history) + 1}
