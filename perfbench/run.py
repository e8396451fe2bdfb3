"""hypersbm benchmark: one workload per call, end-to-end or traced.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload instance-k4 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The workload's inputs, four instances, come from ``--seed``.  After measuring
set-up time, the workload's job is repeated on them for about ``--seconds``;
every pass is checked for correctness and its outputs are hashed per
operation.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced passes, so it also reports the tracing overhead and checks that both
give identical outputs.  The exit code is 1 when a check failed and 2 when the
library cannot be imported.

BLAS and OpenMP thread variables are recorded, never set.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Child process that times import + input build, as a user's fresh process
# pays it.
SETUP_CODE = """
import sys
here, src, name, seed, workdir = sys.argv[1:]
sys.path[:0] = [here, src]
import workloads
workloads.WORKLOADS[name].build_instances(int(seed), workdir)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="instance-k4, sweep-k2, files-k2, or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def git_commit():
    """The checked-out commit; None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return {key: info.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def setup_seconds(name, seed, workdir):
    """Median wall time of fresh processes that import the library and
    build the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, HERE, SRC, name, str(seed), workdir],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_all(args, names):
    """Each workload in its own process, so peak RSS stays per workload."""
    codes = []
    for name in names:
        codes.append(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir):
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_s = setup_seconds(workload.name, args.seed, workdir)
    instances = workload.build_instances(args.seed, workdir)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    # Passes cycle through the instances; a traced run gives each instance
    # an untraced pass, then a traced one, so its cycle covers two instances.
    cycle = 4 if tracer is not None else len(instances)
    passes, layers = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        i = len(passes)
        is_traced = tracer is not None and i % 2 == 1
        instance = (i // 2 if tracer is not None else i) % len(instances)
        if is_traced:
            tracer.reset(i)
            with tracer.active():
                p = workload.run(instances[instance], tracer)
            layers.append(tracer.job_metrics(p.trial_wall_ms[1], p.trial_wall_ms[2]))
        else:
            p = workload.run(instances[instance])
        p.instance, p.traced = instance, is_traced
        passes.append(p)
        if len(passes) == 1:
            # Later passes and the checks reuse freed memory unevenly, so the
            # peak is taken over import, build and one pass.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"pass {len(passes)} instance={instance} traced={int(is_traced)} "
              f"job_s={sum(p.steps.values()):.4f} "
              + " ".join(f"{name}={seconds:.4f}" for name, seconds in p.steps.items()))
        # Stop only after a whole cycle, once another cycle would end more
        # than half a cycle past the deadline, so every instance gets the
        # same number of passes and a run lasts about --seconds.
        if len(passes) % cycle == 0:
            now = time.perf_counter()
            cycle_s = (now - start) / (len(passes) // cycle)
            if now + cycle_s / 2 > deadline:
                break

    # Every pass must give the outputs of the first pass on its instance,
    # traced or not.
    reference = {}
    for p in passes:
        first = reference.setdefault(p.instance, p.outputs)
        for op, digest in p.outputs.items():
            p.check(first.get(op) == digest, op, "output differs from the first pass")
    verify_failures = [(instance, op, message) for instance in sorted(reference)
                       for op, message in workload.verify(instances[instance])]

    attempted = sum(len(p.outputs) for p in passes)
    failed = sum(len({op for op, _ in p.failures}) for p in passes)
    failed += len({(instance, op) for instance, op, _ in verify_failures})
    for p in passes:
        for op, message in p.failures[:5]:
            print(f"FAILED instance {p.instance} {op}: {message}")
    for instance, op, message in verify_failures:
        print(f"FAILED instance {instance} {op}: {message}")

    for instance, outputs in sorted(reference.items()):
        print(f"digest seed={instances[instance]['seed']} sha256={digest_of(outputs)}")
    untraced = [p for p in passes if not p.traced]
    print(f"passes {len(passes)} ({len(passes) - len(untraced)} traced)")
    for name, value, unit in workload.report(untraced):
        print(f"metric {name} {value:.6g} {unit}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "job_s": (job_seconds(passes), "s"),
        }
    else:
        # Each traced pass follows an untraced pass on the same instance.
        pairs = [(passes[k - 1], p) for k, p in enumerate(passes) if p.traced]
        for name in list(passes[0].steps) + ["job_s"]:
            extra = _median(_seconds(on, name) - _seconds(off, name) for off, on in pairs)
            base = _median(_seconds(off, name) for off, _ in pairs)
            print(f"tracing overhead {name}: {extra:+.4f} s ({extra / base:+.1%}), "
                  f"median over {len(pairs)} instances traced and untraced")
        path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = {name: (_median(layer[name] for layer in layers), unit)
                   for name, unit, _ in spans.PER_LAYER}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def digest_of(outputs):
    digest = hashlib.sha256()
    for op, value in outputs.items():
        digest.update(f"{op}={value}\n".encode())
    return digest.hexdigest()


def job_seconds(passes):
    """Median over instances of each instance's median pass time, so every
    instance weighs the same."""
    by_instance = {}
    for p in passes:
        by_instance.setdefault(p.instance, []).append(sum(p.steps.values()))
    return _median(_median(times) for times in by_instance.values())


def _seconds(p, step):
    return sum(p.steps.values()) if step == "job_s" else p.steps[step]


def _median(values):
    return statistics.median(list(values))


if __name__ == "__main__":
    sys.exit(main())
