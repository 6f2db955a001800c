"""One workload in one fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py <workload> ...``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  The worker sets
the workload up, prints ``READY`` and waits for ``GO`` (or ``STOP``, for
the extra set-ups ``run.py`` times) on stdin.  Then it repeats the timed
operation until ``--seconds`` are used, checks the outputs, and prints
one JSON line.  With ``--trace 1`` it adds one traced repetition whose
spans give the per-layer split.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import loadgen  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402

# The repro imports come after the benchmark's own modules on purpose:
# in a directory without ``src`` the worker fails here, before READY.
import numpy as np  # noqa: E402

from repro.analysis import engine as engine_mod  # noqa: E402
from repro.analysis.batch import BatchFaultAnalysis  # noqa: E402
from repro.analysis.faults import fault_to_dict, iter_all_faults  # noqa: E402
from repro.analysis.graph_analysis import GraphDamageAnalysis  # noqa: E402
from repro.bench import table1 as table1_mod  # noqa: E402
from repro.bench.designs import DesignInfo, get_design  # noqa: E402
from repro import campaigns  # noqa: E402
from repro.campaigns import DiagnosisPlan, MonteCarloPlan  # noqa: E402
from repro.core import hardening as hardening_mod  # noqa: E402
from repro.core.problem import HardeningProblem  # noqa: E402
from repro.core.result import HardeningResult  # noqa: E402
from repro.ea import spea2 as spea2_mod  # noqa: E402
from repro.ir import compiled as compiled_mod  # noqa: E402
from repro.rsn import ast as ast_mod  # noqa: E402
from repro.rsn import icl  # noqa: E402
from repro.sp import reduce as reduce_mod  # noqa: E402
from repro.spec import criticality  # noqa: E402
from repro.spec.cost_model import GateCountCost  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Repeat ``operation`` for the run's seconds; subclasses define it."""

    name = ""

    def __init__(self, seed: int, seconds: float, work: str):
        self.seed = seed
        self.seconds = seconds
        self.work = work

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def input_seed(self, index: int) -> int:
        """The seed repetition ``index`` (-1: the traced one) draws its
        inputs from; all repetitions share the run's inputs by default."""
        return self.seed

    def operation(self, index: int) -> Dict:
        raise NotImplementedError

    def independent(self, output: Dict, seed: int) -> Dict:
        raise NotImplementedError

    def install_trace(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, output: Dict) -> Dict:
        return {}

    # -- repetitions ---------------------------------------------------
    def run(self, trace: bool) -> Dict:
        walls: List[float] = []
        outputs: List[Dict] = []
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            outputs.append(self.operation(len(walls)))
            walls.append(time.perf_counter() - began)
            if len(walls) == 1:
                # What one CLI run needs: later repetitions would add
                # whatever the first left in the allocator.
                rss = _rss_mb()
            used = time.perf_counter() - started
            if used + statistics.median(walls) > self.seconds:
                break
        wall = statistics.median(walls)
        check, make_reference = gate.CHECKS[self.name]
        errors: List[str] = []
        failed = 0
        for index, output in enumerate(outputs):
            seed = self.input_seed(index)
            if index and seed == self.seed:
                found = (
                    [] if output == outputs[0]
                    else ["a repetition gave different outputs"]
                )
            else:
                found = check(
                    output,
                    self.independent(output, seed),
                    gate.load_reference(self.name, seed),
                )
            errors.extend(found)
            failed += bool(found)
        result = {
            "attempted": len(walls),
            "failed": failed,
            "errors": errors,
            "reference": make_reference(outputs[0]),
            "walls": walls,
            "end_to_end": {
                "wall_s": wall,
                # One result per repetition: its latency is the
                # repetition's wall time.
                "p50_ms": wall * 1000.0,
                "peak_rss_mb": rss,
            },
        }
        if trace:
            # Overhead against untraced repetitions of the same inputs.
            same = [
                w for i, w in enumerate(walls)
                if self.input_seed(i) == self.input_seed(-1)
            ]
            result["per_layer"] = self.traced(
                statistics.median(same), outputs[0], errors
            )
        result["correct"] = not errors
        return result

    def traced(self, untraced: float, expected: Dict, errors: List) -> Dict:
        tracer = Tracer()
        self.install_trace(tracer)
        try:
            began = time.perf_counter()
            output = self.operation(-1)
            wall = time.perf_counter() - began
        finally:
            tracer.unpatch()
        if output != expected:
            errors.append("the traced repetition gave different outputs")
        self_times = tracer.summary(wall)
        metrics = {f"{name}_s": value for name, value in self_times.items()}
        metrics.update(self.layer_metrics(tracer, output))
        metrics["traced_wall_s"] = wall
        metrics["layer_sum_ratio"] = sum(self_times.values()) / wall
        metrics["trace_overhead_s"] = wall - untraced
        return metrics


# ----------------------------------------------------------------------
class Table1(Workload):
    """One Table I row: Eq. 1 analysis, then SPEA-2 under Eqs. 2-3."""

    name = "table1"
    design = "TreeBalanced"
    #: A quarter of the paper's 1000 generations: ~7 repetitions fit in
    #: a run, and the per-generation cost is the full budget's.
    generations = 250

    def input_seed(self, index: int) -> int:
        # SPEA-2's truncation work depends on the front's shape, so one
        # instance per run would make the run's cost a property of its
        # seed.  Each repetition solves another instance drawn from the
        # run's seed, and the median is over instances.
        return self.seed + 1000 * max(index, 0)

    def operation(self, index: int) -> Dict:
        row = table1_mod.run_design(
            self.design,
            seed=self.input_seed(index),
            generations=self.generations,
        )
        return {
            "max_cost": row.max_cost,
            "max_damage": row.max_damage,
            "min_cost": [row.min_cost_cost, row.min_cost_damage],
            "min_damage": [row.min_damage_cost, row.min_damage_damage],
            "greedy": [row.greedy_min_cost_cost, row.greedy_min_damage_damage],
            "front_size": row.front_size,
            "generations": row.generations,
        }

    def independent(self, output: Dict, seed: int) -> Dict:
        design = get_design(self.design)
        network = design.build()
        spec = criticality.spec_for_network(network, seed=seed)
        report = GraphDamageAnalysis(network, spec, backend="bitset").report()
        problem = HardeningProblem(network, report, GateCountCost())
        return {
            "max_cost": problem.max_cost,
            "max_damage": problem.max_damage,
            "generations": self.generations,
        }

    def install_trace(self, tracer: Tracer) -> None:
        tracer.patch_method("rsn.build", DesignInfo, "build")
        tracer.patch_function("ir.intern", compiled_mod.intern)
        tracer.patch_function("sp.decompose", reduce_mod.decompose)
        tracer.patch_function("spec.spec", criticality.spec_for_network)
        tracer.patch_method(
            "analysis.report", engine_mod.CriticalityEngine, "report"
        )
        tracer.patch_method("core.problem", HardeningProblem, "__init__")
        for attr in ("min_cost_solution", "min_damage_solution"):
            tracer.patch_method("core.extract", HardeningResult, attr)
        tracer.patch_method(
            "core.extract", hardening_mod.SelectiveHardening, "greedy_result"
        )
        # SPEA2.run's self time is selection: fitness, environmental
        # selection and truncation; its callees get their own spans.
        tracer.patch_method("ea.select", spea2_mod.SPEA2, "run")
        for fn in (
            spea2_mod.binary_tournament,
            spea2_mod.one_point_crossover,
            spea2_mod.bit_mutation,
        ):
            tracer.patch_function("ea.vary", fn)
        tracer.patch_function("ea.hypervolume", spea2_mod.hypervolume_2d)
        original_init = spea2_mod.SPEA2.__dict__["__init__"]

        def init(optimizer, problem, *args, **kwargs):
            original_init(
                optimizer, _CountingProblem(problem, tracer), *args, **kwargs
            )

        tracer.replace(spea2_mod.SPEA2, "__init__", init)

    def layer_metrics(self, tracer: Tracer, output: Dict) -> Dict:
        return {
            "ea.genomes": tracer.counts.get("ea.genomes", 0),
            "ea.generations": output["generations"],
            "ea.front_size": output["front_size"],
        }


class _CountingProblem:
    """The problem handed to SPEA2, with ``evaluate`` timed and the
    evaluated genomes counted."""

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self._tracer = tracer
        self._evaluate = tracer.wrap("ea.evaluate", problem.evaluate)

    def __getattr__(self, attr):
        return getattr(self._problem, attr)

    def evaluate(self, genomes):
        self._tracer.count("ea.genomes", len(genomes))
        return self._evaluate(genomes)


# ----------------------------------------------------------------------
class AnalyzeLarge(Workload):
    """``repro-rsn analyze <file>`` on the largest MBIST design."""

    name = "analyze_large"
    design = "MBIST_5_20_20"
    top = 20
    sample = 192

    def setup(self) -> None:
        self.path = os.path.join(self.work, f"{self.design}.icl")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(icl.dumps(get_design(self.design).generate()))

    def operation(self, index: int) -> Dict:
        with open(self.path, encoding="utf-8") as handle:
            text = handle.read()
        network = ast_mod.elaborate(icl.loads(text))
        spec = criticality.spec_for_network(network, seed=self.seed)
        engine = engine_mod.CriticalityEngine(network, spec)
        report = engine.report()
        self._last = (network, spec, report)
        top = [[n, d] for n, d in report.most_critical_units(self.top)]
        return {
            "total": report.total,
            "hardenable": report.hardenable,
            "top_digest": gate.digest(top),
            "faults": engine.stats.faults_evaluated,
        }

    def independent(self, output: Dict, seed: int) -> Dict:
        network, spec, report = self._last
        names = []
        for unit, _damage in report.most_critical_units(3):
            names.extend(network.unit(unit).members)
        rng = random.Random(self.seed)
        names.extend(rng.sample(sorted(report.primitive_damage), self.sample))
        names = sorted(set(names))
        bitset = GraphDamageAnalysis(network, spec, backend="bitset")
        damages = bitset.primitive_damages(names)
        return {
            "primitives": [
                [name, report.primitive_damage[name], float(damage)]
                for name, damage in zip(names, damages)
            ]
        }

    def install_trace(self, tracer: Tracer) -> None:
        tracer.patch_function("rsn.parse", icl.loads)
        tracer.patch_function("rsn.elaborate", ast_mod.elaborate)
        tracer.patch_function("spec.spec", criticality.spec_for_network)
        tracer.patch_function("ir.intern", compiled_mod.intern)
        tracer.patch_function("sp.decompose", reduce_mod.decompose)
        tracer.patch_method(
            "analysis.report", engine_mod.CriticalityEngine, "report"
        )

    def layer_metrics(self, tracer: Tracer, output: Dict) -> Dict:
        return {"analysis.faults": output["faults"]}


# ----------------------------------------------------------------------
class Campaign(Workload):
    """A Monte-Carlo rate sweep, then a diagnosis, on MBIST_1_20_20."""

    name = "campaign"
    design = "MBIST_1_20_20"
    #: ``repro-rsn campaign montecarlo`` default rates.
    rates = (0.0001, 0.0005, 0.001, 0.005, 0.01)
    samples = 2000
    observations = 512
    noise = 0.25

    def setup(self) -> None:
        self.network = get_design(self.design).build()
        self.spec = criticality.spec_for_network(self.network, seed=self.seed)
        self.block_seconds: List[float] = []

    def operation(self, index: int) -> Dict:
        analysis = GraphDamageAnalysis(self.network, self.spec, backend="bitset")
        checkpoint = os.path.join(self.work, f"montecarlo-{index}.jsonl")
        marks = [time.perf_counter()]

        def progress(*_args, **_kwargs):
            marks.append(time.perf_counter())

        plan = MonteCarloPlan(rates=self.rates, samples=self.samples, seed=self.seed)
        sweep = campaigns.run_monte_carlo(
            analysis, plan, checkpoint_path=checkpoint, progress=progress
        )
        self.block_seconds = [b - a for a, b in zip(marks, marks[1:])]
        matrix = campaigns.effect_signature_matrix(analysis)
        diagnosis = campaigns.run_diagnosis(
            analysis,
            DiagnosisPlan(
                observations=self.observations, seed=self.seed, noise=self.noise
            ),
            matrix=matrix,
        )
        self._last = (analysis, matrix, plan, checkpoint)
        return {
            "samples": self.samples,
            "observations": self.observations,
            "mc": self._records(sweep),
            "diagnosis": {
                "summary": diagnosis["summary"],
                "examples": diagnosis["examples"],
            },
        }

    @staticmethod
    def _records(sweep: Dict) -> List[List[float]]:
        return [
            [
                r["rate"],
                r["samples"],
                r["mean_damage"],
                r["ci_low"],
                r["ci_high"],
                r["max_damage"],
                r["nonzero_fraction"],
            ]
            for r in sweep["records"]
        ]

    def independent(self, output: Dict, seed: int) -> Dict:
        analysis, matrix, plan, checkpoint = self._last
        # Resuming from the finished checkpoint replays every block from
        # disk instead of computing it.
        replayed = campaigns.run_monte_carlo(
            analysis, plan, checkpoint_path=checkpoint
        )
        reference = GraphDamageAnalysis(self.network, self.spec, backend="ir")
        rng = np.random.default_rng(self.seed)
        faults = list(iter_all_faults(self.network))
        fault_sets = [
            [faults[i] for i in rng.choice(len(faults), size=k, replace=False)]
            for k in (1, 2, 3, 4, 6, 8)
        ]
        kernel_damages = analysis.damage_of_fault_sets(fault_sets)
        scalar_damages = reference.damage_of_fault_sets(fault_sets)
        rows = rng.choice(len(matrix), size=12, replace=False)
        signatures = []
        for row in rows:
            effect = reference.effect_of_fault(matrix.faults[row])
            signatures.append(
                [
                    [list(matrix.labels[i]) for i in np.flatnonzero(matrix._bits[row])],
                    [["unobs", n] for n in effect.unobservable]
                    + [["unset", n] for n in effect.unsettable],
                ]
            )
        syndromes = {
            fault: frozenset(
                matrix.labels[i] for i in np.flatnonzero(matrix._bits[row])
            )
            for row, fault in enumerate(matrix.faults)
        }
        rankings = []
        for row in rng.choice(len(matrix), size=4, replace=False):
            observed = [
                label
                for label in syndromes[matrix.faults[row]]
                if rng.random() >= self.noise
            ]
            batched = matrix.rank([observed], top=5)[0]
            scalar = campaigns.jaccard_rank_scalar(syndromes, observed, top=5)
            rankings.append([repr(batched), repr(scalar)])
        return {
            "replayed": self._records(replayed),
            "fault_sets": [
                [float(a), float(b)]
                for a, b in zip(kernel_damages, scalar_damages)
            ],
            "signatures": signatures,
            "rankings": rankings,
        }

    def install_trace(self, tracer: Tracer) -> None:
        tracer.patch_function("campaigns.montecarlo", campaigns.run_monte_carlo)
        tracer.patch_function(
            "campaigns.signatures", campaigns.effect_signature_matrix
        )
        tracer.patch_function("campaigns.diagnose", campaigns.run_diagnosis)

    def layer_metrics(self, tracer: Tracer, output: Dict) -> Dict:
        return {
            "campaigns.block_p50_ms": 1000.0
            * statistics.median(self.block_seconds),
            "campaigns.samples": self.samples * len(self.rates),
            "campaigns.observations": self.observations,
        }


# ----------------------------------------------------------------------
class DamageService(Workload):
    """Open-loop ``/damage`` traffic against ``repro-rsn serve``."""

    name = "damage_service"
    design = "MBIST_2_5_5"
    rate = 60.0  # requests per second, offered
    connections = 2
    #: One request in every ``big_every`` asks for ``big_faults`` faults,
    #: at a seeded position, so every run offers the same mix.
    big_every = 10
    big_faults = 64
    warmup = 40

    def setup(self) -> None:
        self.server = None
        network = get_design(self.design).build()
        spec = criticality.spec_for_network(network, seed=self.seed)
        self.kernel = BatchFaultAnalysis(network, spec)
        self.faults = list(iter_all_faults(network))
        expected = self.kernel.damage_vector(self.faults)
        self.expected = [float(value) for value in expected]
        self.schedule = self._schedule()

        began = time.perf_counter()
        self._start_server()
        self.ready_s = time.perf_counter() - began
        began = time.perf_counter()
        with open(self.path, encoding="utf-8") as handle:
            text = handle.read()
        entry = loadgen.post_json(
            self._conn(), "/networks", json.dumps({"icl": text}).encode()
        )
        self.upload_s = time.perf_counter() - began
        self.fingerprint = entry["fingerprint"]
        # Parity check and warm-up: every shard worker that will answer
        # has built its kernel before the timed phase.
        conn = self._conn()
        for indices in self._requests(random.Random(-1 - self.seed), self.warmup):
            reply = loadgen.post_json(conn, "/damage", self._body(indices))
            if reply["damages"] != [self.expected[i] for i in indices]:
                raise RuntimeError("service parity check failed in set-up")
        conn.close()

    def _schedule(self):
        """Poisson arrivals conditioned on their count: exactly
        ``rate * seconds`` requests at sorted uniform times, so every
        run offers the same load and only the arrival pattern varies."""
        rng = random.Random(self.seed)
        count = int(self.rate * self.seconds)
        dues = sorted(rng.uniform(0.0, self.seconds) for _ in range(count))
        return list(zip(dues, self._requests(rng, count)))

    def _requests(self, rng, count):
        index = 0
        while index < count:
            if index % self.big_every == 0:
                big = index + rng.randrange(self.big_every)
            size = self.big_faults if index == big else 1
            yield rng.sample(range(len(self.faults)), size)
            index += 1

    def _body(self, indices) -> bytes:
        return json.dumps(
            {
                "fingerprint": self.fingerprint,
                "seed": self.seed,
                "faults": [fault_to_dict(self.faults[i]) for i in indices],
            }
        ).encode()

    def _start_server(self) -> None:
        self.path = os.path.join(self.work, f"{self.design}.icl")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(icl.dumps(get_design(self.design).generate()))
        log_path = os.path.join(self.work, "serve.log")
        self.log = open(log_path, "w+", encoding="utf-8")
        self.server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                os.path.join(self.work, "serve-cache"),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        deadline = time.perf_counter() + 60.0
        self.port = None
        while time.perf_counter() < deadline:
            if self.server.poll() is not None:
                raise RuntimeError("repro-rsn serve exited during start-up")
            if self.port is None:
                with open(log_path, encoding="utf-8") as handle:
                    for line in handle:
                        if "url=http://" in line:
                            url = line.split("url=http://", 1)[1].split()[0]
                            self.port = int(url.rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    health = json.loads(
                        loadgen.get_text("127.0.0.1", self.port, "/healthz")
                    )
                    if health.get("status") == "ok":
                        return
                except (OSError, RuntimeError, ValueError):
                    pass
            time.sleep(0.01)
        raise RuntimeError("repro-rsn serve did not become ready")

    def _conn(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)

    def _batches(self):
        """(dispatches, requests) summed over /metrics label sets."""
        text = loadgen.get_text("127.0.0.1", self.port, "/metrics")
        count = total = 0.0
        for line in text.splitlines():
            if line.startswith("repro_batch_occupancy_count"):
                count += float(line.rsplit(" ", 1)[1])
            elif line.startswith("repro_batch_occupancy_sum"):
                total += float(line.rsplit(" ", 1)[1])
        return count, total

    def _server_rss_mb(self) -> float:
        """Summed peak RSS of the server and all its descendants."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
        total_kb, stack = 0, [self.server.pid]
        while stack:
            pid = stack.pop()
            stack.extend(children.get(pid, []))
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=30.0)
        self.log.close()
        self.server = None

    def run(self, trace: bool) -> Dict:
        requests = [
            loadgen.Request(
                due, self._body(indices), [self.expected[i] for i in indices]
            )
            for due, indices in self.schedule
        ]
        before = self._batches()
        timing = loadgen.run_open_loop(
            "127.0.0.1", self.port, requests, connections=self.connections
        )
        after = self._batches()
        rss = self._server_rss_mb()
        inf = float("inf")
        latency = [
            (r.done - r.due) * 1000.0 if r.error is None else inf
            for r in requests
        ]
        errors = sorted({r.error for r in requests if r.error})
        mismatches = sum(r.error == "mismatch" for r in requests)
        last = max(r.done for r in requests)
        p99 = percentile(latency, 99)
        result = {
            "attempted": len(requests),
            "failed": sum(r.error is not None for r in requests),
            "correct": mismatches == 0,
            "errors": errors[:10],
            "end_to_end": {
                "wall_s": last - timing["start"],
                "p50_ms": percentile(latency, 50),
                "peak_rss_mb": rss,
            },
            "p99_ms": p99,
            "beyond_p99": sum(v > p99 for v in latency),
            "gen_lag_ms": timing["lag"] * 1000.0,
        }
        if trace:
            result["per_layer"] = self._layers(requests, timing, before, after)
            result["per_layer"]["service.latency_p99_ms"] = p99
        return result

    def _layers(self, requests, timing, before, after) -> Dict:
        ok = [r for r in requests if r.error is None]
        wait = [(r.sent - r.due) * 1000.0 for r in ok]
        rtt = [(r.done - r.sent) * 1000.0 for r in ok]
        kernel = []
        for _due, indices in self.schedule:
            faults = [self.faults[i] for i in indices]
            began = time.perf_counter()
            self.kernel.damage_vector(faults)
            kernel.append((time.perf_counter() - began) * 1000.0)
        kernel_ok = [k for k, r in zip(kernel, requests) if r.error is None]
        overhead = [a - b for a, b in zip(rtt, kernel_ok)]
        dispatches = after[0] - before[0]
        metrics = {
            "service.ready_s": self.ready_s,
            "service.upload_s": self.upload_s,
            "service.dispatches": dispatches,
            "service.occupancy": (after[1] - before[1]) / max(dispatches, 1),
            "gen.lag_ms": timing["lag"] * 1000.0,
        }
        for name, values in (
            ("service.wait", wait),
            ("service.rtt", rtt),
            ("analysis.kernel", kernel),
            ("service.overhead", overhead),
        ):
            metrics[f"{name}_p50_ms"] = percentile(values, 50)
            metrics[f"{name}_p99_ms"] = percentile(values, 99)
        return metrics


WORKLOADS = {
    cls.name: cls for cls in (Table1, AnalyzeLarge, DamageService, Campaign)
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.work)
    try:
        workload.setup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "GO":
            return 0
        result = workload.run(bool(args.trace))
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
