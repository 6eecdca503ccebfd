"""Run spectral-rff commands in fresh processes and report on each.

Usage: python3 child.py --src DIR --import-only --result FILE
       python3 child.py --src DIR --serve

``--import-only`` starts, imports the numeric stack, writes
``{"import_s": ...}`` to FILE and exits: one sample of a fresh
process's start-up cost.

``--serve`` is a fork server. It imports the numeric stack once and
prints ``{"import_s": ...}`` as a line on stdout. Then, for each job
line on stdin (a JSON object with ``argv``, ``trace``, ``run_id``,
``result``, ``stdout`` and ``stderr``), it forks a child and prints
``{"pid": ...}``, so a caller can kill a command that overruns. The
child sends its stdout and stderr to the named files, calls
``cli.main`` (timed as ``wall_s``), writes its result file and exits.
The server waits for it and prints ``{"exit": code}``. Every command
thus runs in a fresh process whose state is that of a process which has
just imported the stack, without paying the import again. With
``trace`` set, the layer wrappers from ``tracer`` are installed in that
child only.

The process caps BLAS threads through the program's own
SPECTRAL_RFF_THREADS handling before numpy is imported.
"""

import argparse
import json
import os
import resource
import sys
import time

_T0 = time.perf_counter()


def import_stack(src):
    sys.path.insert(0, src)
    from spectral_rff import cli
    cli.apply_thread_cap()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    from spectral_rff import (benchmarks, data, features, linalg,  # noqa: F401
                              measures, model, training)
    return cli


def run_command(cli, argv, trace, run_id):
    """Call cli.main(argv); returns (exit code, seconds, spans or None)."""
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer(run_id)
        tracer.install()
    try:
        start = time.perf_counter()
        # looked up at call time so a traced run enters through the wrapper
        code = cli.main(argv)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return code, wall_s, (tracer.spans if tracer is not None else None)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _forked_command(cli, job):
    """Body of a forked child: run one job, write its result, return the exit code."""
    for fd, path in ((1, job["stdout"]), (2, job["stderr"])):
        target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)
    code, wall_s, spans = run_command(cli, job["argv"], job["trace"], job["run_id"])
    sys.stdout.flush()
    sys.stderr.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    _write_json(job["result"], {
        "code": code, "wall_s": wall_s, "spans": spans,
        "module_file": sys.modules["spectral_rff"].__file__,
        "maxrss_mb": usage.ru_maxrss / 1024.0, "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt})
    return code


def _reply(replies, obj):
    replies.write(json.dumps(obj) + "\n")
    replies.flush()


def serve(cli, replies):
    """Fork one child per job line on stdin; reply with its exit code."""
    for line in sys.stdin:
        job = json.loads(line)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _forked_command(cli, job)
            finally:
                os._exit(code)
        _reply(replies, {"pid": pid})
        _, status = os.waitpid(pid, 0)
        _reply(replies, {"exit": os.waitstatus_to_exitcode(status)})


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--serve", action="store_true")
    mode.add_argument("--import-only", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args()

    cli = import_stack(args.src)
    import_s = time.perf_counter() - _T0
    if args.import_only:
        _write_json(args.result, {"import_s": import_s,
                                  "module_file": sys.modules["spectral_rff"].__file__})
        return 0
    # replies go to the original stdout; the commands' own output goes to files
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    _reply(replies, {"import_s": import_s})
    serve(cli, replies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
