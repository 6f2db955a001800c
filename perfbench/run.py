"""End-to-end benchmark of the RSN reproduction: one workload per call.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The last stdout line is one JSON
object with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Every metric carries its unit.

Each call times the workload's set-up in three fresh interpreters (the
median is ``setup_s``) and runs the timed phase in the last of them.
Everything a run writes goes to a fresh directory under
``.perfbench_work/`` in the checkout, removed at the end: caches,
checkpoints, the server's log and ``TMPDIR``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
#: Hard cap on one worker, well inside the 180 s a run may take.
WORKER_TIMEOUT = 150.0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host_record() -> dict:
    """nproc, CPU model, Python, numpy, BLAS library and thread count."""
    record = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    code = (
        "import ctypes, json, numpy\n"
        "blas = [l.split()[-1] for l in open('/proc/self/maps')"
        " if 'blas' in l.lower()]\n"
        "threads = None\n"
        "for path in blas[:1]:\n"
        "    lib = ctypes.CDLL(path)\n"
        "    for sym in ('openblas_get_num_threads',"
        " 'scipy_openblas_get_num_threads64_',"
        " 'openblas_get_num_threads64_'):\n"
        "        fn = getattr(lib, sym, None)\n"
        "        if fn is not None:\n"
        "            threads = fn(); break\n"
        "print(json.dumps({'numpy': numpy.__version__,"
        " 'blas': blas[0].rsplit('/', 1)[-1] if blas else None,"
        " 'blas_threads': threads}))\n"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        record.update(json.loads(out.stdout))
    except (subprocess.SubprocessError, ValueError, OSError):
        record.update({"numpy": None, "blas": None, "blas_threads": None})
    return record


class Worker:
    """One ``worker.py`` process, timed from spawn until it is READY."""

    def __init__(self, args, work: str, env: dict):
        command = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--work",
            work,
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.started
        if line.strip() != "READY":
            self.finish("STOP")
            raise RuntimeError(f"{args.workload} set-up failed")

    def finish(self, command: str) -> str:
        """Send GO or STOP; return the worker's remaining stdout."""
        try:
            out, _ = self.proc.communicate(
                command + "\n", timeout=WORKER_TIMEOUT
            )
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker timed out") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out


def run(args) -> dict:
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SystemExit("no program under src/: run from a full checkout")
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    setups = []
    try:
        for index in range(SETUPS):
            run_dir = os.path.join(work, str(index))
            os.makedirs(os.path.join(run_dir, "tmp"))
            env = dict(os.environ)
            env["PYTHONPATH"] = os.path.join(ROOT, "src")
            env["TMPDIR"] = os.path.join(run_dir, "tmp")
            env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
            worker = Worker(args, run_dir, env)
            setups.append(worker.setup_s)
            if index < SETUPS - 1:
                worker.finish("STOP")
        lines = worker.finish("GO").strip().splitlines()
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        # Layers a workload does not run have done no work on it.
        values = {name: 0.0 for name in names}
        values.update(result.get("per_layer", {}))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "errors": result.get("errors", []),
        "setups_s": setups,
        "host": host_record(),
    }
    detail.update(
        (k, v)
        for k, v in result.items()
        if k not in ("end_to_end", "per_layer", "errors", "correct")
    )
    return detail, {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    detail, out = run(args)
    # Context first; the result is the last line.
    print(json.dumps(detail))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
