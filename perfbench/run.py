"""Benchmark of the spectral-rff command line tool.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is chirp_fit, wide_fit, predict_200k, or ``all`` for the three in
turn. BENCHMARK.json lists chirp_fit and predict_200k; wide_fit is
there to be run by hand (see README.md). Run it from anywhere; it uses
the ``src/`` tree next to this directory and writes only under
``.perfbench_work/`` (scratch, removed at the end) and
``.perfbench_out/`` (one result file per run) at the repository root.

Every input is generated from ``--seed``. Each command runs in a fresh
process with BLAS pinned to one thread, one at a time, forked by a
server (``child.py --serve``) that has imported the numeric stack.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced commands and reports
the per-layer metrics of the traced ones. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import contextlib
import csv
import glob
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

THREAD_VARS = ("SPECTRAL_RFF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# numpy sizes its BLAS pool on first import, so only after the cap is set
import numpy as np  # noqa: E402
from scipy.linalg import solve_triangular  # noqa: E402

import child  # noqa: E402
import tracer  # noqa: E402

# A run must end within 180 s: no child may outlive this many seconds.
RUN_DEADLINE_S = 165.0
# Import-only children started before the commands. The parent has
# imported the same stack already, so the file and bytecode caches are
# warm. The fork server's own import is one more sample.
IMPORT_PROBES = 2

FIT_STEPS = 100
# patience counts validation evaluations; more than FIT_STEPS / 25 of
# them means early stopping never fires and every fit runs FIT_STEPS
FIT_PATIENCE = 1000
CHIRP_ROWS = 600            # split 0.7, validation 0.1: 378 gradient rows
WIDE_ROWS = 2858            # split 0.7, validation 0.1: 1800 gradient rows
PREDICT_ROWS = 200_000
PREDICT_MODEL_PAIRS = 150
PREDICT_MODEL_STEPS = 200
# every REFERENCE_STRIDE-th predicted row is recomputed independently
REFERENCE_STRIDE = 100
REFERENCE_RTOL = 1e-9

_METRIC_LINE = re.compile(r"mse=(\S+) corr=(\S+)$")


def chirp_fit_argv(data, out, seed, pairs=300, steps=FIT_STEPS):
    """The frozen learned-arm chirp settings (benchmarks.chirp_arm_configs)."""
    return ["fit", "--data", data, "--mode", "nonstationary", "--m", str(pairs),
            "--lr", "0.3", "--sigma-p", "0.05", "--eval-every", "25",
            "--patience", str(FIT_PATIENCE), "--max-steps", str(steps),
            "--seed", str(seed), "--out-dir", out]


def wide_fit_argv(data, out, seed):
    """The criterion-10 fit shape: 100 pairs, learning rate 0.05."""
    return ["fit", "--data", data, "--mode", "nonstationary", "--m", "100",
            "--lr", "0.05", "--sigma-p", "0.05", "--eval-every", "25",
            "--patience", str(FIT_PATIENCE), "--max-steps", str(FIT_STEPS),
            "--seed", str(seed), "--out-dir", out]


# ---------------------------------------------------------------- inputs

def _chirp_spec(seed):
    from spectral_rff.benchmarks import SyntheticSpec
    return SyntheticSpec("chirp", n=CHIRP_ROWS, noise=0.05, seed=seed)


def chirp_truth(t, spec):
    return np.sin(2.0 * np.pi * (spec.chirp_rate * t + spec.chirp_accel * t * t))


def write_chirp(path, seed):
    from spectral_rff import benchmarks, data
    data.save_dataset_csv(path, benchmarks.gen_chirp(_chirp_spec(seed)))


def write_wide_series(path, seed):
    """Criterion-10 series: sorted uniform x, sin(12 x) plus N(0, 0.1^2) noise."""
    from spectral_rff import data, linalg
    rng = linalg.seeded_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, WIDE_ROWS)).reshape(-1, 1)
    y = np.sin(12.0 * x[:, 0]) + 0.1 * rng.standard_normal(WIDE_ROWS)
    data.save_dataset_csv(path, data.Dataset(x, y, ["x"], "y"))


def write_query(path, seed):
    """PREDICT_ROWS chirp-domain inputs; returns them for the output check."""
    t = np.random.default_rng([seed, PREDICT_ROWS]).uniform(0.0, 1.0, PREDICT_ROWS)
    np.savetxt(path, t.reshape(-1, 1), fmt="%.17g", header="t", comments="")
    return t


# ---------------------------------------------------------------- children

class Runner:
    """Runs commands one at a time, inside the run's deadline.

    Import probes are fresh ``child.py --import-only`` processes. Commands
    go to a ``child.py --serve`` fork server, started by ``start`` and
    stopped by ``stop``, which forks a fresh process for each.
    """

    def __init__(self, work, started, trace_run_id):
        self.work = work
        self.started = started
        self.run_id = trace_run_id
        self.count = 0
        self.server = None
        self.server_err = None
        self.server_import_s = None

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def _paths(self):
        self.count += 1
        stem = os.path.join(self.work, f"child{self.count}")
        return stem + ".json", stem + ".out", stem + ".err"

    def _check_module(self, result):
        """An error message when spectral_rff did not come from SRC, else None."""
        where = os.path.dirname(os.path.abspath(result["module_file"]))
        if where != os.path.join(SRC, "spectral_rff"):
            return f"imported {result['module_file']}, not {SRC}"
        return None

    def import_probe(self):
        """Seconds a fresh process takes to import the stack, or None."""
        result_path, _, _ = self._paths()
        timeout = self.remaining()
        if timeout <= 1.0:
            return None
        try:
            subprocess.run([sys.executable, CHILD, "--src", SRC, "--import-only",
                            "--result", result_path], cwd=self.work,
                           capture_output=True, timeout=timeout, check=True)
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (subprocess.SubprocessError, OSError):
            return None
        os.remove(result_path)
        return None if self._check_module(result) else result["import_s"]

    def start(self):
        """Start the fork server; its own import time is kept in server_import_s."""
        self.server_err = open(os.path.join(self.work, "server.err"), "w+b")
        self.server = subprocess.Popen(
            [sys.executable, CHILD, "--src", SRC, "--serve"], cwd=self.work,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.server_err,
            bufsize=0, start_new_session=True)
        ready = self._reply(self.remaining())
        if ready is None:
            self.server_err.seek(0)
            raise RuntimeError("fork server did not start: "
                               + self.server_err.read().decode(errors="replace")[-300:])
        self.server_import_s = ready["import_s"]

    def _reply(self, timeout):
        """The server's next reply line, or None on timeout or end of output."""
        ready, _, _ = select.select([self.server.stdout], [], [], max(0.0, timeout))
        if not ready:
            return None
        line = self.server.stdout.readline()
        return json.loads(line) if line else None

    def stop(self):
        """Stop the server; kill it and all it started if it does not stop."""
        server, self.server = self.server, None
        if server is not None:
            try:
                server.stdin.close()
                server.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(server.pid, signal.SIGKILL)
                server.wait()
            server.stdout.close()
        if self.server_err is not None:
            self.server_err.close()
            self.server_err = None

    def child(self, argv, trace=False):
        """Run one command in a forked child; returns (result or None, stdout, stderr)."""
        result_path, out_path, err_path = self._paths()
        if self.remaining() <= 1.0:
            return None, "", "run deadline reached"
        job = {"argv": argv, "trace": trace, "run_id": f"{self.run_id}-{self.count}",
               "result": result_path, "stdout": out_path, "stderr": err_path}
        try:
            self.server.stdin.write((json.dumps(job) + "\n").encode())
        except OSError as exc:
            return None, "", f"fork server gone: {exc}"
        forked = self._reply(self.remaining())
        if forked is None:
            return None, "", "fork server did not fork"
        done = self._reply(self.remaining())
        if done is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(forked["pid"], signal.SIGKILL)
            self._reply(10.0)
            return None, "", "child timed out"
        texts = []
        for path in (out_path, err_path):
            if os.path.exists(path):
                with open(path, encoding="utf-8", errors="replace") as fh:
                    texts.append(fh.read())
                os.remove(path)
            else:
                texts.append("")
        stdout, stderr = texts
        if not os.path.exists(result_path):
            return None, stdout, stderr
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        result["returncode"] = done["exit"]
        wrong_module = self._check_module(result)
        if wrong_module:
            return None, stdout, wrong_module
        return result, stdout, stderr


# ---------------------------------------------------------------- checks

def _metrics_line(stdout):
    """(mse, corr) from the last ``mse=<x> corr=<y>`` line of a fit's stdout."""
    found = [m for m in map(_METRIC_LINE.match, stdout.splitlines()) if m]
    if not found:
        raise ValueError("no mse=/corr= line on stdout")
    mse, corr = float(found[-1].group(1)), float(found[-1].group(2))
    if not (math.isfinite(mse) and math.isfinite(corr)):
        raise ValueError(f"non-finite metrics mse={mse} corr={corr}")
    return mse, corr


def read_trace_csv(path):
    """(per-step wall_ms list, best validation step or None) from trace.csv."""
    steps, best_step, best_val = [], None, math.inf
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            steps.append(float(row["wall_ms"]))
            if row["val_neg_lml"] and float(row["val_neg_lml"]) < best_val:
                best_val, best_step = float(row["val_neg_lml"]), int(row["step"])
    return steps, best_step


def check_fit(stdout, out, steps=FIT_STEPS):
    """Checks on one fit of ``steps`` steps; returns its facts or raises ValueError."""
    from spectral_rff import model
    mse, corr = _metrics_line(stdout)
    model.load_model(os.path.join(out, "model.json"))
    step_ms, best_step = read_trace_csv(os.path.join(out, "trace.csv"))
    if len(step_ms) != steps:
        raise ValueError(f"trace.csv has {len(step_ms)} steps, expected {steps}")
    return {"test_mse": mse, "corr": corr, "step_ms": step_ms, "best_step": best_step}


def reference_predict(state, x):
    """Predictive mean and variance from a model's arrays, without cli or model.

    An independent numpy transcription of the weight-space predictor for
    the nonstationary map (see the model module's docstring), in the
    original units of x and y.
    """
    st = state.standardization
    xs = (x.reshape(-1, 1) - st.input_mean) / st.input_std
    p1, p2 = xs @ state.bank.omega1.T, xs @ state.bank.omega2.T
    phi = np.hstack([np.cos(p1) + np.cos(p2), np.sin(p1) + np.sin(p2)])
    v = solve_triangular(state.r, phi.T, lower=True)
    mean = phi @ state.alpha2 * st.output_std + st.output_mean
    var = state.hyper.sigma_n2 * (1.0 + np.sum(v * v, axis=0)) * st.output_std ** 2
    return mean, var


def _close(actual, expected):
    scale = float(np.max(np.abs(expected)))
    return np.allclose(actual, expected, rtol=REFERENCE_RTOL, atol=REFERENCE_RTOL * scale)


def check_predict(out, query, truth, reference):
    """Checks on one predict; returns its facts or raises ValueError."""
    path = os.path.join(out, "predictions.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "t,mean,variance":
        raise ValueError(f"unexpected predictions header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (PREDICT_ROWS, 3):
        raise ValueError(f"predictions have shape {table.shape}, "
                         f"expected ({PREDICT_ROWS}, 3)")
    if not np.array_equal(table[:, 0], query):
        raise ValueError("predictions.csv inputs differ from the query rows")
    mean, var = table[:, 1], table[:, 2]
    if not np.all(np.isfinite(mean)):
        raise ValueError("non-finite predictive mean")
    if not (np.all(np.isfinite(var)) and np.all(var > 0.0)):
        raise ValueError("predictive variance not finite and positive")
    ref_mean, ref_var = reference
    if not (_close(mean[::REFERENCE_STRIDE], ref_mean)
            and _close(var[::REFERENCE_STRIDE], ref_var)):
        raise ValueError(f"predictions differ from the reference beyond rtol {REFERENCE_RTOL}")
    pred_mse = float(np.mean((mean - truth) ** 2))
    # predicting 0 everywhere scores mean(truth^2), about 1/2 for the chirp
    zero_mse = float(np.mean(truth ** 2))
    if not pred_mse < zero_mse:
        raise ValueError(f"pred_mse {pred_mse} not below the zero predictor's {zero_mse}")
    return {"pred_mse": pred_mse}


# ---------------------------------------------------------------- workloads

class Workload:
    """Inputs of one workload and the checks on each of its commands."""

    def __init__(self, name, work, seed, runner):
        self.name = name
        self.work = work
        self.seed = seed
        self.quality = {}
        if name == "chirp_fit":
            self.data = os.path.join(work, "chirp.csv")
            write_chirp(self.data, seed)
        elif name == "wide_fit":
            self.data = os.path.join(work, "wide.csv")
            write_wide_series(self.data, seed)
        else:
            self._setup_predict(runner)

    def _setup_predict(self, runner):
        chirp = os.path.join(self.work, "chirp.csv")
        write_chirp(chirp, self.seed)
        self.model = os.path.join(self.work, "model", "model.json")
        argv = chirp_fit_argv(chirp, os.path.dirname(self.model), self.seed,
                              pairs=PREDICT_MODEL_PAIRS, steps=PREDICT_MODEL_STEPS)
        result, stdout, stderr = runner.child(argv)
        if result is None or result["returncode"] != 0:
            raise RuntimeError(f"set-up fit of the predict model failed: {stderr.strip()}")
        self.quality["test_mse"] = _metrics_line(stdout)[0]
        self.data = os.path.join(self.work, "query.csv")
        self.query = write_query(self.data, self.seed)
        self.truth = chirp_truth(self.query, _chirp_spec(self.seed))
        from spectral_rff import model
        self.reference = reference_predict(model.load_model(self.model),
                                           self.query[::REFERENCE_STRIDE])

    @property
    def is_fit(self):
        return self.name != "predict_200k"

    def argv(self, out):
        if self.name == "chirp_fit":
            return chirp_fit_argv(self.data, out, self.seed)
        if self.name == "wide_fit":
            return wide_fit_argv(self.data, out, self.seed)
        return ["predict", "--model", self.model, "--data", self.data, "--out-dir", out]

    def check(self, result, stdout, out):
        """Facts of one finished command; raises ValueError on a failed check."""
        if result is None:
            raise ValueError("child produced no result")
        if result["returncode"] != 0:
            raise ValueError(f"exit code {result['returncode']}")
        if self.is_fit:
            facts = check_fit(stdout, out)
        else:
            facts = check_predict(out, self.query, self.truth, self.reference)
        # one seed gives one set of numbers: every repeat must agree exactly
        for key in ("test_mse", "pred_mse"):
            if key in facts:
                first = self.quality.setdefault(key, facts[key])
                if facts[key] != first:
                    raise ValueError(f"{key} {facts[key]!r} differs from the "
                                     f"first command's {first!r}")
        return facts


# ---------------------------------------------------------------- metrics

def end_to_end_metrics(workload, commands, import_samples):
    """The untraced metrics of one run, medians over its commands."""
    if workload.is_fit:
        steps = [ms for c in commands for ms in c["step_ms"]]
    else:
        steps = [c["wall_s"] * 1e3 for c in commands]
    p50, p97 = np.percentile(steps, [50, 97])
    return {
        "wall_s": (statistics.median(c["wall_s"] for c in commands), "s"),
        "setup_s": (statistics.median(import_samples), "s"),
        "peak_rss_mb": (statistics.median(c["maxrss_mb"] for c in commands), "MB"),
        "step_ms_p50": (float(p50), "ms"),
        "step_ms_p97": (float(p97), "ms"),
    }


def per_layer_metrics(traced, untraced_wall):
    """Per-layer metrics: means per traced command, so self times add up."""
    count = len(traced)
    names = [f"{mod}.{fn}" for mod, fn in tracer.SPANS]
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    fields = {}
    main_ns = 0
    for command in traced:
        spans = command["spans"]
        for span in spans:
            calls[span["name"]] += 1
            if span["name"] in tracer.ANNOTATIONS:
                field = tracer.ANNOTATIONS[span["name"]][0]
                fields[span["name"]] = fields.get(span["name"], 0) + span[field]
            if span["name"] == "cli.main":
                main_ns += span["end_ns"] - span["start_ns"]
        for name, ns in tracer.self_times_ns(spans).items():
            self_ns[name] += ns
    metrics = {"cli.main.ms": (main_ns / 1e6 / count, "ms")}
    for name in names:
        metrics[f"{name}.calls"] = (calls[name] / count, "count")
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6 / count, "ms")
        if name in tracer.ANNOTATIONS:
            field, unit, _ = tracer.ANNOTATIONS[name]
            metrics[f"{name}.{field}"] = (fields.get(name, 0) / count, unit)
    ratios = [c["best_step"] / len(c["step_ms"]) for c in traced
              if c.get("best_step") is not None]
    metrics["training.useful_step_ratio"] = (
        statistics.mean(ratios) if ratios else 0.0, "ratio")
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(untraced_wall) - 1.0,
                                      "fraction")
    return metrics


def check_trace(command):
    """Consistency of one traced command's spans; raises ValueError."""
    spans = command["spans"]
    roots = [s for s in spans if s["parent"] is None]
    if [s["name"] for s in roots] != ["cli.main"]:
        raise ValueError(f"trace roots are {[s['name'] for s in roots]}, expected cli.main")
    total = sum(tracer.self_times_ns(spans).values())
    if total != roots[0]["end_ns"] - roots[0]["start_ns"]:
        raise ValueError("self times do not add up to cli.main")
    if "step_ms" in command:
        grads = sum(1 for s in spans if s["name"] == "training.lml_gradient")
        if grads != len(command["step_ms"]):
            raise ValueError(f"{grads} lml_gradient calls for "
                             f"{len(command['step_ms'])} trace.csv steps")


# ---------------------------------------------------------------- environment

def src_line_count():
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
            "src_lines": src_line_count()}


# ---------------------------------------------------------------- one run

def run_workload(name, seed, seconds, trace):
    """One measured run; returns (summary dict, record for the result file)."""
    started = time.perf_counter()
    work = os.path.join(WORK_DIR, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, started, f"{name}-seed{seed}")
    try:
        probes = [runner.import_probe() for _ in range(IMPORT_PROBES)]
        runner.start()
        import_samples = [p for p in probes if p is not None]
        import_samples.append(runner.server_import_s)
        workload = Workload(name, work, seed, runner)
        commands, traced, failures = [], [], []
        attempted = 0
        loop_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for traced_child in ((False, True) if trace else (False,)):
                attempted += 1
                out = os.path.join(work, f"out{attempted}")
                result, stdout, stderr = runner.child(workload.argv(out), trace=traced_child)
                try:
                    facts = workload.check(result, stdout, out)
                    command = dict(result, **facts)
                    if traced_child:
                        check_trace(command)
                except (ValueError, OSError) as exc:
                    failures.append(f"command {attempted}: {exc}; stderr: {stderr.strip()[-300:]}")
                    continue
                finally:
                    shutil.rmtree(out, ignore_errors=True)
                (traced if traced_child else commands).append(command)
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - loop_start
            if elapsed + last > seconds or runner.remaining() < 1.5 * last + 5.0:
                break
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
    if not commands or (trace and not traced) or not import_samples:
        raise RuntimeError("no command passed its checks: " + " | ".join(failures))
    if trace:
        metrics = per_layer_metrics(traced, [c["wall_s"] for c in commands])
    else:
        metrics = end_to_end_metrics(workload, commands, import_samples)
    quality = dict(workload.quality, fail_rate=len(failures) / attempted)
    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "quality": quality, "failures": failures,
              "commands": [{k: v for k, v in c.items() if k != "spans"}
                           for c in commands + traced],
              "spans": [s for c in traced for s in c["spans"]]}
    return summary, record


def report(name, summary, record, env):
    print(f"workload {name} seed {record['seed']}: {summary['attempted']} commands, "
          f"{summary['failed']} failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for key, metric in summary["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print("  quality: " + " ".join(f"{k}={v!r}" for k, v in record["quality"].items()))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{record['seed']}-trace{int(record['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, environment=env, result=summary), fh)


WORKLOADS = ("chirp_fit", "wide_fit", "predict_200k")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spectral_rff", "cli.py")):
        print(f"error: no spectral_rff package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # warms the file and bytecode caches for the children's imports
    child.import_stack(SRC)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            summary, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, ValueError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, summary, record, env)
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
