"""Benchmark entry point for qforecast.

    python3 perfbench/run.py --workload forecast-default --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the workload runs whole rounds while one
more still fits in ``--seconds`` (at least one) and the last output line is a
JSON object with the end-to-end metrics. With ``--trace 1`` it runs one untraced
round and one traced round and reports the per-layer metrics; the difference
between the two rounds is the tracing overhead. Outputs of every round are
checked. Scratch files and a record of each run (environment, all times,
spans) go under ``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, so runs measure the program and not the scheduler;
# must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root):
    """Commit of the checkout, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy
    from qforecast import backend
    return {"git_sha": git_sha(ROOT), "backend": backend.BACKEND_NAME,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def src_py_lines():
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qforecast" / "__init__.py").is_file():
        print("perfbench: no qforecast sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    records = ROOT / ".bench_build" / "perfbench"
    workdir = records / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        return run(args, workloads.WORKLOADS[args.workload](args.seed, str(workdir)), records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_seconds():
    """Import time of numpy and every qforecast module in a fresh interpreter."""
    probe = ("import time; t0 = time.perf_counter(); import numpy; "
             "from qforecast import cli, datagen, pauli, pipeline, pqc, vqls; "
             "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def run(args, workload, records):
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.make_inputs()
        workload.warm_up(inputs)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    rounds, tracer = [], None
    if args.trace:
        rounds.append(workload.run_round(inputs, "untraced"))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            inputs = workload.make_inputs()  # again, so input generation is traced too
            rounds.append(workload.run_round(inputs, "traced"))
        finally:
            tracer.uninstall()
    else:
        # another round only if one more of median length still fits, so a
        # run ends near --seconds however long the workload's round is
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start
                             + statistics.median(r.seconds for r in rounds) <= args.seconds):
            rounds.append(workload.run_round(inputs, "round%d" % len(rounds)))
            if len(rounds) == 1:
                # one round's peak: later rounds only add their kept outputs,
                # and the checks' oracle runs are not the program's memory
                rss = peak_rss_mb()

    errors, outcomes = [], {}
    for rnd in rounds:
        found, outcomes = workload.check(inputs, rnd)
        errors += found
    for message in errors:
        print("perfbench: check failed: %s" % message, file=sys.stderr)
    attempted = len(rounds) * workload.ops_per_round
    failed = sum(rnd.failed for rnd in rounds)

    env = environment()
    if args.trace:
        spans = tracer.summary()
        metrics = layer_metrics(spans, tracer.counters, outcomes, *rounds)
    else:
        metrics = {"setup_s": metric(setup_s, "s"),
                   "run_s": metric(statistics.median(r.seconds for r in rounds), "s"),
                   "peak_rss_mb": metric(rss, "MB")}

    records.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"environment": env, "import_runs_s": imports, "setup_runs_s": setups,
              "rounds": [r.times for r in rounds], "errors": errors,
              "outcomes": outcomes, "metrics": metrics}
    if tracer is not None:
        record["spans"] = spans
        tracer.write(records / (stem + "-spans.csv"))
    (records / (stem + ".json")).write_text(json.dumps(record, indent=1, default=str))

    print("environment " + json.dumps(env))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(spans, counters, outcomes, untraced, traced):
    import kernels

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def seconds(name):
        return spans.get(name, {}).get("s", 0.0)

    def mean(name, scale):
        return seconds(name) / calls(name) * scale if calls(name) else 0.0

    gates = counters.get("qsim.gates", 0)
    epochs = counters.get("baselines.mlp_epochs", 0)
    m = {
        "qsim.run_circuit.calls": metric(calls("qsim.run_circuit"), "count"),
        "qsim.run_circuit.s": metric(seconds("qsim.run_circuit"), "s"),
        "qsim.gates": metric(gates, "count"),
        "qsim.us_per_gate": metric(seconds("qsim.run_circuit") / gates * 1e6 if gates else 0.0, "us"),
        "qsim.bytes_computed_gb": metric(counters.get("qsim.bytes_computed", 0) / 1e9, "GB"),
    }
    for name in ("qsim.expectation", "qsim.hadamard_test", "qsim.circuit_unitary"):
        m[name + ".calls"] = metric(calls(name), "count")
        m[name + ".s"] = metric(seconds(name), "s")
    for n in kernels.QUBITS:
        m["qsim.gate_us.q%d" % n] = metric(kernels.us_per_gate(n), "us")
    m.update({
        "pqc.loss.calls": metric(calls("pqc.loss"), "count"),
        "pqc.loss.ms": metric(mean("pqc.loss", 1e3), "ms"),
        "pqc.gradient.calls": metric(calls("pqc.gradient"), "count"),
        "pqc.gradient.s": metric(seconds("pqc.gradient"), "s"),
        "pqc.predict_batch.windows": metric(counters.get("pqc.predict_batch.windows", 0), "count"),
        "pqc.predict_batch.s": metric(seconds("pqc.predict_batch"), "s"),
        "pqc.evaluations": metric(outcomes.get("pqc.evaluations", 0), "count"),
        "pqc.loss_ratio": metric(outcomes.get("pqc.loss_ratio", 0.0), "1"),
        "pqc.test_mse": metric(outcomes.get("pqc.test_mse", 0.0), "1"),
        "optimize.self_s": metric(spans.get("optimize.minimize", {}).get("self_s", 0.0), "s"),
        "optimize.evaluations": metric(calls("optimize.objective"), "count"),
        "optimize.gradient_calls": metric(calls("optimize.gradient"), "count"),
        "vqls.cost.calls": metric(calls("vqls.cost"), "count"),
        "vqls.cost.us": metric(mean("vqls.cost", 1e6), "us"),
        "vqls.from_system.ms": metric(mean("vqls.from_system", 1e3), "ms"),
        "vqls.evaluations": metric(outcomes.get("vqls.evaluations", 0), "count"),
        "vqls.fidelity_min": metric(outcomes.get("vqls.fidelity_min", 0.0), "1"),
        "pauli.decompose.calls": metric(calls("pauli.decompose"), "count"),
        "pauli.decompose.s": metric(seconds("pauli.decompose"), "s"),
        "pauli.decompose.d64_s": metric(counters.get("pauli.decompose.d64_s", 0.0), "s"),
        "pauli.terms": metric(counters.get("pauli.terms", 0), "count"),
        "baselines.mlp_epoch_us": metric(seconds("baselines.mlp_train") / epochs * 1e6 if epochs else 0.0, "us"),
        "baselines.fit_linear.ms": metric(mean("baselines.fit_linear", 1e3), "ms"),
        "linsys.preprocess.ms": metric(seconds("linsys.preprocess") * 1e3, "ms"),
        "pipeline.write_artifacts.ms": metric(seconds("pipeline.write_artifacts") * 1e3, "ms"),
        "pipeline.artifact_bytes": metric(outcomes.get("pipeline.artifact_bytes", 0), "B"),
        "cli.load_model.ms": metric(seconds("cli.load_model") * 1e3, "ms"),
        "cli.roll.ms": metric(seconds("cli.roll") * 1e3, "ms"),
        "datagen.generate.ms": metric(seconds("datagen.generate") * 1e3, "ms"),
        "trace.overhead_s": metric(traced.seconds - untraced.seconds, "s"),
        "src.py_lines": metric(src_py_lines(), "count"),
    })
    for phase in PHASES:
        m[phase] = metric(untraced.times.get(phase, 0.0), "s")
    return m


# untraced per-phase times, reported with the layer metrics
PHASES = ("phase.pqc_fit_s", "phase.vqls_fit_s", "phase.mlp_fit_s", "phase.lbfgs_fit_s",
          "phase.apply_s", "phase.solve_s", "phase.hadamard_solve_s", "phase.decompose_s")


if __name__ == "__main__":
    sys.exit(main())
