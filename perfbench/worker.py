"""The timed process.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace> <export>

``setup`` imports qosc, generates the workload's inputs and prints the
monotonic clock, so the caller can time set-up from before the interpreter
started.  ``run`` does the same, then runs whole passes over the workload's
operations, one at a time, until ``seconds`` have passed, and writes a pickle
of pass times, failures and (with export 1) the first pass's outputs to
stdout.  With trace 1 it spends half the time untraced and
half traced.

This process imports only the standard library and what qosc imports; the
oracles run in the caller.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (needs the paths above)
from reference import BURST, NOMINAL_LAUNCH_S, burst, launch, scaled  # noqa: E402

# A long pass gets a longer burst after it, about REF_SHARE of its time.
REF_SHARE = 0.05


def run_passes(ops, seconds: float, tracer=None, export=True, launches=False) -> dict:
    """Closed loop, one caller: whole passes over ``ops`` until ``seconds`` pass.

    With ``export`` the first pass also exports each successful result for
    the oracles, after its timing ends.  A burst of reference loops runs
    between passes, or with ``launches`` (operations that each start a
    process) a reference process start; 'scaled' holds each pass time scaled
    by the references on either side of it.  A pass that would end past the
    deadline, judged by the last one, is not started, so a run of long
    passes keeps close to ``seconds``."""
    passes, scaled_passes, op_times, failed, deltas = [], [], [], [], []
    exports, outputs = [], {op.name: [] for op in ops if op.output}
    clock = time.perf_counter
    deadline = clock() + seconds
    gaps = [launch() if launches else burst()]
    while True:
        times, failures = [], []
        before = tracer.snapshot() if tracer else None
        for op in ops:
            t0 = clock()
            ok, result = workloads.attempt(op)
            times.append(clock() - t0)
            if not ok:
                failures.append(op.name)
            if op.output and not isinstance(result, BaseException):
                outputs[op.name].append(hashlib.sha256(op.output(result)).hexdigest())
            if ok and export and not passes:
                exports.append((op.name, op.check, op.export(result)))
        if tracer:
            deltas.append(tracer.delta_since(before))
        passes.append(sum(times))
        op_times.append(times)
        failed.append(failures)
        if launches:
            gaps.append(launch())
            scaled_passes.append(scaled(passes[-1], gaps[-2], gaps[-1], NOMINAL_LAUNCH_S))
        else:
            loop = statistics.fmean(gaps[-1])
            gaps.append(burst(max(BURST, int(REF_SHARE * passes[-1] / loop))))
            scaled_passes.append(scaled(passes[-1], gaps[-2], gaps[-1]))
        if clock() + passes[-1] > deadline:
            break
    return {"passes": passes, "scaled": scaled_passes, "gaps": gaps, "op_times": op_times,
            "failed": failed, "exports": exports, "outputs": outputs, "deltas": deltas}


def main(argv) -> int:
    mode, workload, seed = argv[1], argv[2], int(argv[3])
    ops, probe = workloads.build(workload, seed)
    if mode == "setup":
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    seconds, trace = float(argv[4]), int(argv[5])
    out = {"ops": [(op.name, op.known_failure) for op in ops], "probe": probe}
    if not trace:
        out["untraced"] = run_passes(ops, seconds, export=argv[6] == "1",
                                     launches=workload == "cli")
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        out["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    else:
        from tracer import Tracer

        if workload == "cli":
            ops = workloads.cli_in_process(seed)
            out["argv0"] = [argv[0] for _, argv in workloads.cli_argvs(seed)]
        out["untraced"] = run_passes(ops, seconds / 2)
        tracer = Tracer(refusal=workloads.Q.UnsupportedSpectrumError)
        tracer.install()
        try:
            out["traced"] = run_passes(ops, seconds / 2, tracer, export=False)
        finally:
            tracer.uninstall()
    sys.stdout.buffer.write(pickle.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
