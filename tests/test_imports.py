"""Import cost: the package loads numpy and scipy.linalg, nothing heavier.

scipy.stats is imported inside the copula and quantile functions, so a
fit or predict that calls neither starts without it, and no module of
the package imports scipy.special. Each run-time check runs in a fresh
interpreter, because this one loaded both long ago.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

SRC = Path(__file__).resolve().parent.parent / "src"

# imports what `import spectral_rff` promises, then prints the JSON of `result`
PRELUDE = """
import importlib, json, sys
import numpy as np
import spectral_rff
for name in spectral_rff.__all__:
    importlib.import_module("spectral_rff." + name)
from spectral_rff import cli
cli.apply_thread_cap()

def lazy_modules():
    return sorted(k for k in sys.modules
                  if k.startswith(("scipy.stats", "scipy.special")))
"""


def run_fresh(body):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PRELUDE + body],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_neither_scipy_stats_nor_special():
    assert run_fresh("print(json.dumps(lazy_modules()))") == []


def test_lazy_imports_compute_the_same_bits():
    out = run_fresh("""
from spectral_rff.measures import MaternT, quantile_fn
before = lazy_modules()
u = np.linspace(0.01, 0.99, 99)
q = quantile_fn(MaternT(1.5, 2.0))(u)
print(json.dumps({"before": before, "q": q.tobytes().hex(),
                  "stats": "scipy.stats" in sys.modules}))
""")
    assert out["before"] == []
    assert out["stats"]
    u = np.linspace(0.01, 0.99, 99)
    assert bytes.fromhex(out["q"]) == (stats.t.ppf(u, df=3.0) / 2.0).tobytes()


def test_no_module_of_the_package_imports_scipy_special():
    # the closed-form kernels that needed it are test oracles
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(n == "scipy.special" or n.startswith("scipy.special.")
                           for n in names), f"{path.name}:{node.lineno}"
