"""Benchmark of qosc: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The timed work happens in a separate process (worker.py) that
imports only what qosc imports; this process checks every output against the
oracles (oracles.py) and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of a traced run.  See README.md for what each measures.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("identities", "spectra", "exact", "reject", "cli")

from reference import NOMINAL_LAUNCH_S, launch, scaled  # noqa: E402  (this directory is on sys.path)

# A run is SEGMENTS timed processes in a row, each for seconds/SEGMENTS, with
# SETUP_PROBES set-up probes and CALL_PROBES probe invocations after each, so
# that every metric samples the whole run and not one stretch of it.
SEGMENTS = 5
SETUP_PROBES = 2
CALL_PROBES = 3
IMPORT_PROBES = 5  # per traced run, for the interpreter and import timings
WORKER_TIMEOUT = 170

# (module, function) pairs whose calls and self time the traced run reports.
LAYERS = (
    ("opmatrix", "band_mul"),
    ("opmatrix", "q_commutator_residual"),
    ("opmatrix", "residual_report"),
    ("opmatrix", "eigenvalues"),
    ("opmatrix", "char_poly_eval"),
    ("representation", "build_general"),
    ("representation", "xi_residuals"),
    ("representation", "classify"),
    ("representation", "decompose"),
    ("families", "verify_spectrum"),
    ("families", "big_q_jacobi"),
    ("families", "askey_wilson"),
    ("families", "q_hahn"),
    ("families", "q_para_krawtchouk"),
    ("families", "expand_monic"),
    ("tridiagonalization", "companion_b"),
    ("tridiagonalization", "build_W"),
    ("tridiagonalization", "to_monic"),
    ("tridiagonalization", "qdiff_Z_apply"),
    ("tridiagonalization", "qdiff_B_apply"),
    ("algebra", "big_qjacobi_algebra_residuals"),
    ("algebra", "aw_algebra_residuals"),
    ("numerics", "laurent_mul"),
)
SUBCOMMANDS = ("build", "verify", "spectrum", "poly", "decompose")


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from before a fresh interpreter starts until qosc is imported
    and the workload's inputs exist."""
    t0 = monotonic()
    done = subprocess.run([sys.executable, WORKER, "setup", workload, str(seed)],
                          stdout=subprocess.PIPE, check=True, timeout=60)
    return float(done.stdout.decode().strip().splitlines()[-1]) - t0


def run_worker(workload: str, seed: int, seconds: float, trace: int, export: bool) -> dict:
    done = subprocess.run([sys.executable, WORKER, "run", workload, str(seed), str(seconds),
                           str(trace), str(int(export))], stdout=subprocess.PIPE, check=True,
                          timeout=WORKER_TIMEOUT)
    return pickle.loads(done.stdout)


def timed_call(cmd: list, env: dict) -> tuple:
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False, timeout=60)
    return time.perf_counter() - t0, done


def median(xs) -> float:
    return float(statistics.median(xs))


# -- correctness ------------------------------------------------------------------


def check_outputs(workload: str, out: dict) -> list:
    """Messages for every output an oracle rejects, and for every failure
    that is not a known fault."""
    import oracles

    problems = []
    known = {name for name, is_known in out["ops"] if is_known}
    for part in ("untraced", "traced"):
        for failures in out.get(part, {}).get("failed", []):
            for name in failures:
                if name not in known:
                    sys.stderr.write(f"perfbench: {name} failed\n")
        run = out.get(part)
        if run is None:
            continue
        for name, hashes in run["outputs"].items():
            try:
                oracles.check_identical(hashes, name)
            except oracles.CheckFailed as exc:
                problems.append(str(exc))
    exports = out["untraced"]["exports"]
    if workload == "cli":
        texts = {}
        for name, _, data in exports:
            try:
                oracles.check_exit(data["returncode"], 0, name)
            except oracles.CheckFailed as exc:
                problems.append(str(exc))
            texts[name] = data["stdout"]
        try:
            oracles.check_cli(texts)
        except (oracles.CheckFailed, KeyError) as exc:
            problems.append(f"cli: {exc!r}")
        return problems
    for name, check, data in exports:
        try:
            oracles.CHECKS[check](data)
        except oracles.CheckFailed as exc:
            problems.append(f"{name}: {exc}")
    return problems


def counts(out: dict) -> tuple:
    attempted = failed = 0
    n_ops = len(out["ops"])
    for part in ("untraced", "traced"):
        for failures in out.get(part, {}).get("failed", []):
            attempted += n_ops
            failed += len(failures)
    return attempted, failed


# -- end-to-end metrics -------------------------------------------------------------


def probe_call(workload: str, probe: list) -> tuple:
    """(seconds, problem or None) of one invocation of the workload's probe command."""
    expected = 2 if workload == "reject" else 0
    dt, done = timed_call([sys.executable, "-m", "qosc.cli", *probe], env_with_src())
    if done.returncode != expected:
        return dt, f"probe {probe[0]}: exit {done.returncode}, expected {expected}"
    return dt, None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    """The end-to-end metrics of SEGMENTS timed processes and their probes;
    each set-up probe and probe call is scaled by the reference process
    starts on either side of it."""
    setups, calls, rss, problems, segments = [], [], [], [], []
    for i in range(SEGMENTS):
        seg = run_worker(workload, seed, seconds / SEGMENTS, 0, export=i == 0)
        segments.append(seg["untraced"])
        rss.append(seg["peak_rss_kb"] / 1024.0)
        after = launch()
        for _ in range(SETUP_PROBES):
            before, setup = after, setup_probe(workload, seed)
            after = launch()
            setups.append(scaled(setup, before, after, NOMINAL_LAUNCH_S))
        for _ in range(CALL_PROBES):
            before, (dt, problem) = after, probe_call(workload, seg["probe"])
            after = launch()
            calls.append(scaled(dt, before, after, NOMINAL_LAUNCH_S))
            problems += [problem] if problem else []
    merged = {key: [x for s in segments for x in s[key]]
              for key in ("passes", "scaled", "op_times", "failed")}
    merged["exports"] = segments[0]["exports"]
    merged["outputs"] = {k: [h for s in segments for h in s["outputs"][k]] for k in segments[0]["outputs"]}
    out = {**seg, "untraced": merged}
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": median(merged["scaled"]), "unit": "s"},
        "peak_rss_mb": {"value": median(rss), "unit": "MB"},
        "call_p50_ms": {"value": median(calls) * 1e3, "unit": "ms"},
    }
    return out, metrics, problems


# -- per-layer metrics --------------------------------------------------------------


def import_times() -> dict:
    """Bare interpreter start, and cumulative import of qosc and numpy
    from ``-X importtime``, in ms (medians)."""
    env = env_with_src()
    bare = [timed_call([sys.executable, "-c", "pass"], env)[0] for _ in range(IMPORT_PROBES)]
    cum = {"qosc": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        _, done = timed_call([sys.executable, "-X", "importtime", "-c", "import qosc"], env)
        for line in done.stderr.decode().splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in cum:
                cum[parts[2]].append(int(parts[1]) / 1e3)
    return {
        "cli.interpreter_ms": median(bare) * 1e3,
        "cli.import_qosc_ms": median(cum["qosc"]),
        "cli.import_numpy_ms": median(cum["numpy"]) if cum["numpy"] else 0.0,
    }


def ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(workload: str, out: dict) -> dict:
    # one row per traced pass and function, in tracer.Stat's field order:
    # calls, self_ns, total_ns, work, ok, ok_ns, refused, refused_ns
    traced = out["traced"]["deltas"]
    zero = (0,) * 8
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for module, fn in LAYERS:
        key = f"{module}.{fn}"
        rows = [d.get(key, zero) for d in traced]
        put(f"{key}.calls", median(r[0] for r in rows), "count")
        put(f"{key}.self_ms", median(r[1] / 1e6 for r in rows), "ms")
    mul = [d.get("opmatrix.band_mul", zero) for d in traced]
    put("opmatrix.band_mul.madds", median(r[3] for r in mul), "count")
    put("opmatrix.band_mul.ns_per_madd", median(ratio(r[2], r[3]) for r in mul), "ns")
    eig = [d.get("opmatrix.eigenvalues", zero) for d in traced]
    put("opmatrix.eigenvalues.ms_per_root", median(ratio(r[5] / 1e6, r[3]) for r in eig), "ms")
    put("opmatrix.eigenvalues.reject_ms", median(ratio(r[7] / 1e6, r[6]) for r in eig), "ms")
    ver = [d.get("families.verify_spectrum", zero) for d in traced]
    put("families.verify_spectrum.certified", median(ratio(r[4], r[0]) for r in ver), "share")

    for name, value in import_times().items():
        put(name, value, "ms")
    untraced = out["untraced"]
    for sub in SUBCOMMANDS:
        if workload == "cli":
            per_pass = [sum(t for t, argv0 in zip(times, out["argv0"]) if argv0 == sub)
                        for times in untraced["op_times"]]
            value = median(per_pass) * 1e3
        else:
            value = 0.0
        put(f"cli.main.{sub}_ms", value, "ms")
    put("trace.wall_s_untraced", median(untraced["passes"]), "s")
    put("trace.wall_s_traced", median(out["traced"]["passes"]), "s")
    loops = [t for part in (untraced, out["traced"]) for gap in part["gaps"] for t in gap]
    put("trace.ref_ms", median(loops) * 1e3, "ms")
    # scaled pass times, so that drift of the machine between halves cancels
    overhead = median(out["traced"]["scaled"]) / median(untraced["scaled"]) - 1.0
    put("trace.overhead_pct", 100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "qosc", "__init__.py")):
        return fail(f"no qosc source under {SRC}; run from the root of a qosc checkout")
    try:
        if args.trace:
            out = run_worker(args.workload, args.seed, args.seconds, 1, export=True)
            metrics, problems = per_layer(args.workload, out), []
        else:
            out, metrics, problems = end_to_end(args.workload, args.seed, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"timed process failed: {exc}")
    problems += check_outputs(args.workload, out)
    for msg in problems:
        sys.stderr.write(f"perfbench: check failed: {msg}\n")
    attempted, failed = counts(out)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
