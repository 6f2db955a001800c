"""Scalability of the criticality analysis (the paper's Sec. VI claim that
"efficient hierarchical processing enables scalability with the increasing
RSN size").

Benchmarks the three pipeline stages separately on generated MBIST-style
networks of growing size, plus the O(N) aggregate analysis against the
O(N^2) explicit reference on a small network (the ablation justifying the
hierarchical computation of Sec. IV-C), plus the criticality engine.

Run as a script to (re)write the perf baseline consumed by later PRs::

    PYTHONPATH=src python benchmarks/bench_analysis_scaling.py \
        --output results/BENCH_criticality.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import sys
import time

import pytest

from repro.analysis import CriticalityEngine, analyze_damage
from repro.analysis.faults import faults_of_primitive
from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench.generators import mbist_network
from repro.ir import compile_network
from repro.rsn.ast import elaborate
from repro.rsn.primitives import NodeKind
from repro.sim.simulator import ScanSimulator
from repro.sp import decompose
from repro.spec import spec_for_network

SIZES = [
    (113, 15),
    (1_091, 28),
    (6_068, 45),
    (30_320, 217),
]


@pytest.mark.parametrize("n_segments,n_muxes", SIZES)
def test_decomposition_scaling(benchmark, n_segments, n_muxes):
    network = elaborate(mbist_network(n_segments, n_muxes, seed=0))

    tree = benchmark.pedantic(
        lambda: decompose(network), rounds=1, iterations=1
    )
    assert len(list(tree.primitive_leaves())) >= n_segments
    benchmark.extra_info.update(
        {"n_segments": n_segments, "n_muxes": n_muxes}
    )


@pytest.mark.parametrize("n_segments,n_muxes", SIZES)
def test_fast_analysis_scaling(benchmark, n_segments, n_muxes):
    network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
    spec = spec_for_network(network, seed=0)
    tree = decompose(network)

    report = benchmark.pedantic(
        lambda: analyze_damage(network, spec, tree=tree, method="fast"),
        rounds=1,
        iterations=1,
    )
    assert report.total > 0
    benchmark.extra_info.update(
        {
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "max_damage": report.total,
        }
    )


def test_engine_scaling(benchmark):
    """The criticality engine on the largest generated design (the
    engine row behind BENCH_criticality.json)."""
    n_segments, n_muxes = SIZES[-1]
    network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
    spec = spec_for_network(network, seed=0)
    tree = decompose(network)

    def run():
        engine = CriticalityEngine(network, spec, tree=tree)
        return engine, engine.report()

    engine, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.total > 0
    benchmark.extra_info.update(
        {
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "engine_stats": engine.stats.as_dict(),
        }
    )


@pytest.mark.parametrize("method", ["fast", "explicit", "graph"])
def test_fast_vs_explicit_analysis(benchmark, method):
    """Ablation A4: the hierarchical aggregate analysis vs the per-fault
    tree reference vs graph reachability on the same 113-segment
    network."""
    network = elaborate(mbist_network(113, 15, seed=0))
    spec = spec_for_network(network, seed=0)
    tree = decompose(network)

    report = benchmark(
        lambda: analyze_damage(network, spec, tree=tree, method=method)
    )
    benchmark.extra_info.update(
        {"method": method, "max_damage": report.total}
    )


# ---------------------------------------------------------------------------
# baseline writer (results/BENCH_criticality.json)
# ---------------------------------------------------------------------------
def _time_engine(network, spec, tree, method):
    """One engine run; returns its stats dict plus wall seconds."""
    started = time.perf_counter()
    engine = CriticalityEngine(network, spec, tree=tree, method=method)
    report = engine.report()
    elapsed = time.perf_counter() - started
    stats = engine.stats.as_dict()
    stats["wall_seconds"] = elapsed
    stats["total_damage"] = report.total
    return stats


def write_baseline(output: str, quick: bool = False) -> dict:
    """Measure the engine's faults/s per design and dump JSON.

    The record is the perf trajectory later PRs compare against; `quick`
    drops the largest design for CI sanity passes.
    """
    sizes = SIZES[:-1] if quick else SIZES
    runs = [("fast", n_seg, n_mux) for n_seg, n_mux in sizes]
    # The explicit O(N^2) reference: keep it to the sizes that finish in
    # seconds.
    runs.append(("explicit", *SIZES[0]))
    if not quick:
        runs.append(("explicit", *SIZES[1]))

    designs = []
    for method, n_segments, n_muxes in runs:
        network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
        spec = spec_for_network(network, seed=0)
        tree = decompose(network)
        serial = _time_engine(network, spec, tree, method)
        entry = {
            "design": f"mbist_{n_segments}_{n_muxes}",
            "method": method,
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "faults": serial["faults_evaluated"],
            "serial": {
                "seconds": serial["wall_seconds"],
                "faults_per_second": serial["faults_per_second"],
            },
        }
        designs.append(entry)
        print(
            f"{entry['design']:18s} {method:8s} "
            f"{serial['wall_seconds']:.3f}s "
            f"({serial['faults_per_second']:,.0f} faults/s)",
            flush=True,
        )

    payload = {
        "benchmark": "criticality-engine",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "CriticalityEngine wall time and faults/s on generated "
            "MBIST networks (tree pre-built outside the timer, no "
            "cache)."
        ),
    }
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return payload


# ---------------------------------------------------------------------------
# dict-vs-IR baseline writer (results/BENCH_ir.json)
# ---------------------------------------------------------------------------
def _sample_faults(network, count, seed=1234):
    """A deterministic sample of faults across all primitives."""
    faults = []
    for node in network.nodes():
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
            faults.extend(faults_of_primitive(network, node.name))
    rng = random.Random(seed)
    if len(faults) <= count:
        return faults
    return rng.sample(faults, count)


def _time_graph_backend(network, spec, faults, backend):
    """Construction + per-fault damage over ``faults``; returns
    (seconds, damages)."""
    started = time.perf_counter()
    analysis = GraphDamageAnalysis(network, spec, backend=backend)
    damages = [analysis.damage_of_fault(fault) for fault in faults]
    return time.perf_counter() - started, damages


def _time_path_walks(network, backend, walks):
    simulator = ScanSimulator(network, path_backend=backend)
    # Open every SIB / select port 1 everywhere: at reset the active path
    # bypasses the whole hierarchy, which would time an empty walk.
    for cell in simulator.update_values:
        simulator.update_values[cell] = 1
    started = time.perf_counter()
    path = None
    for _ in range(walks):
        path = simulator.active_path()
    return time.perf_counter() - started, path


def write_ir_baseline(
    output: str, quick: bool = False, faults_per_design: int = 30
) -> dict:
    """Identical workloads through the dict and compiled-IR backends.

    Per design size: ``faults_per_design`` sampled single-fault damage
    queries through :class:`GraphDamageAnalysis` (4 BFS each — the
    representative hot path) and repeated simulator active-path walks.
    The dict results double as a parity check: any divergence fails the
    run instead of silently benchmarking different answers.
    """
    sizes = SIZES[:-1] if quick else SIZES
    walks = 200
    designs = []
    for n_segments, n_muxes in sizes:
        network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
        spec = spec_for_network(network, seed=0)

        started = time.perf_counter()
        compiled = compile_network(network)
        compile_seconds = time.perf_counter() - started

        faults = _sample_faults(network, faults_per_design)
        dict_seconds, dict_damages = _time_graph_backend(
            network, spec, faults, "dict"
        )
        ir_seconds, ir_damages = _time_graph_backend(
            network, spec, faults, "ir"
        )
        if ir_damages != dict_damages:
            raise SystemExit(
                f"dict-vs-IR damage mismatch on mbist_{n_segments}"
            )

        sim_dict_seconds, dict_path = _time_path_walks(
            network, "dict", walks
        )
        sim_ir_seconds, ir_path = _time_path_walks(network, "ir", walks)
        if ir_path != dict_path:
            raise SystemExit(
                f"dict-vs-IR active-path mismatch on mbist_{n_segments}"
            )

        entry = {
            "design": f"mbist_{n_segments}_{n_muxes}",
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "nodes": compiled.n_nodes,
            "edges": compiled.n_edges,
            "compile_seconds": compile_seconds,
            "pickle_bytes": {
                "network": len(pickle.dumps(network)),
                "ir": len(pickle.dumps(compiled)),
            },
            "graph_analysis": {
                "faults_sampled": len(faults),
                "dict_seconds": dict_seconds,
                "ir_seconds": ir_seconds,
                "speedup": (
                    dict_seconds / ir_seconds if ir_seconds > 0 else 0.0
                ),
            },
            "simulator": {
                "walks": walks,
                "dict_seconds": sim_dict_seconds,
                "ir_seconds": sim_ir_seconds,
                "speedup": (
                    sim_dict_seconds / sim_ir_seconds
                    if sim_ir_seconds > 0
                    else 0.0
                ),
            },
            "parity": True,
        }
        designs.append(entry)
        print(
            f"{entry['design']:18s} "
            f"analysis dict {dict_seconds:.3f}s / ir {ir_seconds:.3f}s "
            f"({entry['graph_analysis']['speedup']:.2f}x), "
            f"paths dict {sim_dict_seconds:.3f}s / "
            f"ir {sim_ir_seconds:.3f}s "
            f"({entry['simulator']['speedup']:.2f}x)",
            flush=True,
        )

    payload = {
        "benchmark": "compiled-ir-vs-dict",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "Identical sampled-fault damage workloads and active-path "
            "walks through the string-keyed dict backends and the "
            "compiled array-backed IR backends; results are verified "
            "bit-identical before timing is recorded.  compile_seconds "
            "is the one-off lowering cost amortized across every "
            "consumer via repro.ir.intern."
        ),
    }
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return payload


# ---------------------------------------------------------------------------
# bitset-vs-scalar baseline writer (results/BENCH_batch.json)
# ---------------------------------------------------------------------------
#: The three MBIST designs of the batch baseline; the largest (6068
#: segments) anchors the acceptance threshold of the bit-parallel kernel.
BATCH_SIZES = SIZES[:3]


def _full_fault_universe(network):
    """Every concrete fault of every scan primitive, in primitive order —
    the workload of a whole-design criticality pass."""
    faults = []
    for node in network.nodes():
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
            faults.extend(faults_of_primitive(network, node.name))
    return faults


def _time_damage_vector(network, spec, faults, backend):
    """Construction + full-universe damage vector; returns
    (seconds, damages).  Each backend takes its native path: one
    lane-packed pass for ``bitset``, a per-fault loop for the scalar
    backends."""
    started = time.perf_counter()
    analysis = GraphDamageAnalysis(network, spec, backend=backend)
    if backend == "bitset":
        damages = [float(d) for d in analysis.damage_vector(faults)]
    else:
        damages = [analysis.damage_of_fault(fault) for fault in faults]
    return time.perf_counter() - started, damages


def write_batch_baseline(output: str, quick: bool = False) -> dict:
    """The full-fault-universe criticality pass through all three
    reachability backends of :class:`GraphDamageAnalysis`.

    Unlike the sampled BENCH_ir workload, this times the *whole* fault
    universe per design — the pass the bit-parallel kernel exists for.
    All three damage vectors must be bit-identical before an entry is
    recorded; ``quick`` drops the largest design for CI sanity passes.
    """
    sizes = BATCH_SIZES[:-1] if quick else BATCH_SIZES
    designs = []
    for n_segments, n_muxes in sizes:
        network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
        spec = spec_for_network(network, seed=0)
        faults = _full_fault_universe(network)

        bitset_seconds, bitset_damages = _time_damage_vector(
            network, spec, faults, "bitset"
        )
        ir_seconds, ir_damages = _time_damage_vector(
            network, spec, faults, "ir"
        )
        dict_seconds, dict_damages = _time_damage_vector(
            network, spec, faults, "dict"
        )
        if bitset_damages != ir_damages or ir_damages != dict_damages:
            raise SystemExit(
                f"backend damage mismatch on mbist_{n_segments}"
            )

        entry = {
            "design": f"mbist_{n_segments}_{n_muxes}",
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "faults": len(faults),
            "bitset_seconds": bitset_seconds,
            "ir_seconds": ir_seconds,
            "dict_seconds": dict_seconds,
            "speedup_vs_ir": (
                ir_seconds / bitset_seconds if bitset_seconds > 0 else 0.0
            ),
            "speedup_vs_dict": (
                dict_seconds / bitset_seconds
                if bitset_seconds > 0
                else 0.0
            ),
            "parity": True,
        }
        designs.append(entry)
        print(
            f"{entry['design']:18s} {len(faults):6d} faults: "
            f"bitset {bitset_seconds:.3f}s / ir {ir_seconds:.3f}s / "
            f"dict {dict_seconds:.3f}s "
            f"({entry['speedup_vs_ir']:.1f}x vs ir, "
            f"{entry['speedup_vs_dict']:.1f}x vs dict)",
            flush=True,
        )

    payload = {
        "benchmark": "bitset-batch-analysis",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "Full-fault-universe damage vectors through the three "
            "GraphDamageAnalysis backends (bitset = 64 lane-packed "
            "faults per uint64 sweep, ir = per-fault BFS on the "
            "compiled IR, dict = string-keyed reference).  All three "
            "vectors are verified bit-identical before any timing is "
            "recorded.  Timings include backend construction (the "
            "bitset sweep schedule is built once per network)."
        ),
    }
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write the criticality-engine perf baseline"
    )
    parser.add_argument(
        "--output", default="results/BENCH_criticality.json"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the largest design (CI sanity pass)",
    )
    parser.add_argument(
        "--ir", action="store_true",
        help="write the dict-vs-IR comparison baseline instead",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="write the bitset-vs-scalar batch baseline instead",
    )
    args = parser.parse_args(argv)
    if args.ir:
        output = args.output
        if output == parser.get_default("output"):
            output = "results/BENCH_ir.json"
        write_ir_baseline(output, quick=args.quick)
    elif args.batch:
        output = args.output
        if output == parser.get_default("output"):
            output = "results/BENCH_batch.json"
        write_batch_baseline(output, quick=args.quick)
    else:
        write_baseline(args.output, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
