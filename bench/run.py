"""hetcov benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload analytic-coverage --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it repeats the workload's pass while ``--seconds`` allow
(at least once) and reports the end-to-end metrics. With ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output check passed.
"""

import os

# One BLAS/OpenMP thread, so that workers=N means N threads; set before
# numpy is first imported. Children inherit it.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import FULL, WORKLOADS, Checked, nproc  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("model", "specfun", "association", "analysis", "mcsim", "cli")

# Narrower integers for the written span file; times stay float64.
SPAN_FILE_DTYPES = {"name": np.int16, "parent": np.int32, "root": np.int32}

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def load_hetcov() -> types.SimpleNamespace:
    """Import the package from this checkout's src/; exit nonzero if absent."""
    if not (SRC / "hetcov" / "__init__.py").is_file():
        sys.exit(f"bench: no hetcov package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import hetcov

    if Path(hetcov.__file__).resolve().parent != SRC / "hetcov":
        sys.exit(f"bench: imported hetcov from {hetcov.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"hetcov.{m}") for m in MODULES}
    )


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload being set up."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup child failed (exit {proc.returncode}): {line!r}")
    return elapsed


def environment() -> dict:
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
    }


def merge(a: Checked, b: Checked) -> Checked:
    return Checked(a.attempted + b.attempted, a.failed + b.failed, a.problems + b.problems)


def untraced(hc, wl, inputs, seconds: float):
    """Repeat the pass while another one is expected to end within seconds."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(wl.run(hc, inputs, None))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    checked = Checked(0, 0, [])
    for i, res in enumerate(results):
        checked = merge(checked, wl.check(hc, inputs, res))
        if res.output != results[0].output:
            checked = merge(checked, Checked(0, 1, [f"pass {i} output differs from pass 0"]))
    return results, times, checked


def install_tracer(hc) -> spans.Tracer:
    tracer = spans.Tracer(layers.SPAN_NAMES)

    def count_points(t, points):
        t.count("mcsim.generate_ppp.points", len(points))

    for (mod, fn), span in layers.SPANNED.items():
        original = getattr(getattr(hc, mod), fn, None)
        if original is None:  # gone from the package: its metrics read 0
            continue
        after = count_points if span == "mcsim.generate_ppp" else None
        tracer.rebind(original, tracer.spanned(original, lambda a, k, s=span: s, after))

    def event_span(args, kwargs):
        event = args[0] if args else kwargs["event"]
        return layers.EVENT_SPANS[event.value]

    original = hc.analysis.coverage_conditional
    tracer.rebind(original, tracer.spanned(original, event_span))
    for (mod, fn), name in layers.COUNTED.items():
        original = getattr(getattr(hc, mod), fn, None)
        if original is not None:
            tracer.rebind(original, tracer.counted(original, name))
    for mod in layers.QUAD_CALLERS:
        tracer.proxy_quad(getattr(hc, mod), layers.QUAD_SPAN)
    return tracer


def layer_metrics(tracer: spans.Tracer, arrays: dict, extra: dict) -> dict:
    ids = {n: i for i, n in enumerate(tracer.names)}
    stats = spans.span_stats(arrays, len(tracer.names))
    counts = tracer.counts()
    ppp_calls = int(stats["calls"][ids["mcsim.generate_ppp"]])
    derived = {
        "analysis.mean_rate.coverage_calls": spans.count_under(
            arrays, ids["analysis.coverage_overall"], ids["analysis.mean_rate"]
        ),
        "mcsim.generate_ppp.points": counts["mcsim.generate_ppp.points"],
        "model.derive_tier.calls": counts["model.derive_tier.calls"],
        # useful network draws over attempted ones; a draw drops both tiers
        "mcsim.draws_per_trial": (
            2.0 * int(stats["calls"][ids["mcsim.sample_network"]]) / ppp_calls
            if ppp_calls else 1.0
        ),
        **extra,
    }
    out = {}
    for name, unit, _better, _moves in layers.PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            span, suffix = name.rsplit(".", 1)
            value = stats[layers.SUFFIX_STAT[suffix]][ids[span]]
            value = int(value) if suffix == "calls" else float(value)
        out[name] = (value, unit)
    return out


def traced(hc, wl, inputs, workload: str):
    """One untraced pass, then the same pass traced; compare their outputs."""
    t0 = time.perf_counter()
    ref = wl.run(hc, inputs, None)
    untraced_s = time.perf_counter() - t0
    tracer = install_tracer(hc)
    try:
        t0 = time.perf_counter()
        res = wl.run(hc, inputs, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    checked = merge(wl.check(hc, inputs, ref), wl.check(hc, inputs, res))
    if res.output != ref.output:
        checked = merge(checked, Checked(0, 1, ["traced output differs from untraced output"]))
    arrays = tracer.arrays()
    extra = {
        "mcsim.run_trials.trials_per_s": ref.info.get("trials_per_s", 0.0),
        "mcsim.run_trials.trials_per_s_w2": ref.info.get("trials_per_s_w2", 0.0),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    metrics = layer_metrics(tracer, arrays, extra)
    OUT_DIR.mkdir(exist_ok=True)
    np.savez_compressed(
        OUT_DIR / f"spans-{workload}.npz",
        names=np.array(tracer.names),
        **{k: v.astype(SPAN_FILE_DTYPES.get(k, v.dtype)) for k, v in arrays.items()},
    )
    return metrics, checked, {"untraced_s": untraced_s, "traced_s": traced_s,
                              "spans": int(len(arrays["name"]))}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=FULL) -> int:
    args = parse_args(argv)
    hc = load_hetcov()
    wl = WORKLOADS[args.workload]
    setup_times = [time_setup(args.workload, args.seed) for _ in range(sizes.setup_repeats)]
    inputs = wl.setup(hc, args.seed, sizes, OUT_DIR)

    if args.trace:
        metrics, checked, detail = traced(hc, wl, inputs, args.workload)
    else:
        _, times, checked = untraced(hc, wl, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
        detail = {"pass_s": times, "setup_runs_s": setup_times}

    env = environment()
    correct = checked.failed == 0 and not checked.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("detail " + json.dumps(detail))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    print(f"  {'ops_failed_frac':<46} {checked.failed / max(checked.attempted, 1):>16.6g} "
          f"fraction ({checked.failed}/{checked.attempted})")
    for problem in checked.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "detail": detail, "problems": checked.problems,
              **result}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
