"""Benchmark of tsclab's three jobs, driven through its own command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload calls
``tsclab.harness.cli.main([...])`` in this process, so it pays for argument
parsing, config and bundle loading and CSV output exactly as a ``tsclab``
user does.  Set-up (imports, scenario/grid/config files, policy bundles) is
done ``SETUP_REPEATS`` times and reported as its median; then the timed body
runs back to back, one job at a time, for about ``--seconds``.

Times are reported in reference seconds (see ``refclock.py``): each call is
timed under a reference clock that samples a fixed loop while the call runs,
so the machine's drifting speed is factored out.

Every iteration's outputs are hashed.  All iterations of a run must agree,
and with the default seed the hashes must equal those recorded in
``perfbench/expected.json``.  With ``--trace 1`` the run alternates untraced
and traced iterations: the traced ones wrap tsclab's public functions (see
``spans.py``) and give the per-layer metrics, and their outputs must equal
the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  A run record with the machine, versions
and every sample is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import RefClock
from spans import TraceError, Tracer, calibrate, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_TRACED = 3  # traced iterations per --trace 1 run, each paired with an untraced one
HORIZON_S = 7200
EPISODES = 5
BUNDLE_TIMESTEPS = 2000  # short training run that only has to produce a bundle

# C6's PPO settings (ROADMAP acceptance check C6)
C6_PPO_CONFIG = {
    "ppo.learning_rate": "1e-3",
    "ppo.entropy_coef": "0.005",
    "ppo.n_steps": "100",
    "ppo.batch_size": "50",
    "ppo.clip_epsilon": "0.1",
}

# C6's baseline means over evaluation seeds 0-4, compared as printed by repr()
BASELINE_MEANS = {"fixed": "44.12676056338028", "webster": "21.518864659051577"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or configuration)."""


def cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one tsclab command in-process; return (exit code, stdout, stderr)."""
    import tsclab.harness.cli as cli_module

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


# -- workloads -----------------------------------------------------------------
#
# A workload makes its inputs in ``prepare``, lists the tsclab commands of one
# iteration in ``calls`` (label, argv), and hashes and checks their outputs in
# ``check``.  ``sim_seconds`` gives each call's simulated seconds, if known.


# (column, controller, state representation of its policy bundle)
EVAL_COLUMNS = (
    ("fixed", "fixed", None),
    ("webster", "webster", None),
    ("ppo-expanded", "policy", "expanded"),
    ("ppo-kplanes", "policy", "kplanes"),
)


class EvalGrid:
    """The C6 comparison: ``tsclab compare`` over five seeded 7200 s episodes
    with one worker, one call per controller column."""

    name = "eval-grid"

    def prepare(self, setup_dir: Path, seed: int) -> dict:
        cfg = write_config(setup_dir / "ppo.cfg", C6_PPO_CONFIG)
        grids = {}
        for column, controller, repr_kind in EVAL_COLUMNS:
            fields = f"controller={controller}"
            if repr_kind is not None:
                # the bundle is a fixed input: always trained with seed 0
                bundle_dir = setup_dir / f"bundle-{repr_kind}"
                code, _, err = cli(["train", "--repr", repr_kind, "--seed", "0",
                                    "--timesteps", str(BUNDLE_TIMESTEPS),
                                    "--config", str(cfg), "--out", str(bundle_dir)])
                if code != 0:
                    raise BenchError(f"bundle training failed ({code}): {err.strip()}")
                fields += f" weights={bundle_dir / 'policy.tscw'}"
            grids[column] = setup_dir / f"grid-{column}.txt"
            grids[column].write_text(f"{column} {fields}\n")
        seeds = [EPISODES * seed + i for i in range(EPISODES)]
        return {"grids": grids, "seeds": seeds}

    def calls(self, ctx: dict, out: Path) -> list[tuple[str, list[str]]]:
        return [(column, ["compare", "--grid", str(grid),
                          "--seeds", ",".join(map(str, ctx["seeds"])),
                          "--horizon", str(HORIZON_S), "--workers", "1",
                          "--out", str(out / column)])
                for column, grid in ctx["grids"].items()]

    def check(self, ctx: dict, out: Path, stdouts: dict, seed: int) -> dict:
        result = {}
        for column in ctx["grids"]:
            files = ["summary.csv"] + [f"cycles_{column}_seed{s}.csv"
                                       for s in ctx["seeds"]]
            hashes = {f: sha256(out / column / f) for f in files}
            with open(out / column / "summary.csv", newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            hashes["mean_Q_cycle"] = row["mean_Q_cycle"]
            if seed == DEFAULT_SEED and column in BASELINE_MEANS:
                if row["mean_Q_cycle"] != BASELINE_MEANS[column]:
                    raise AssertionError(f"{column} mean {row['mean_Q_cycle']} != "
                                         f"C6 baseline {BASELINE_MEANS[column]}")
            result[column] = hashes
        return result

    def sim_seconds(self, ctx: dict, out: Path) -> dict:
        return {column: float(EPISODES * HORIZON_S) for column in ctx["grids"]}


class TrainPpo:
    """One seed of the C6 study: PPO on the expanded state, queue reward,
    100k simulated seconds."""

    name = "train-ppo"

    def prepare(self, setup_dir: Path, seed: int) -> dict:
        return {"config": write_config(setup_dir / "c6.cfg", C6_PPO_CONFIG),
                "seed": seed}

    def calls(self, ctx: dict, out: Path) -> list[tuple[str, list[str]]]:
        return [("train", ["train", "--repr", "expanded", "--reward", "queue",
                           "--seed", str(ctx["seed"]), "--timesteps", "100000",
                           "--config", str(ctx["config"]), "--out", str(out)])]

    def check(self, ctx: dict, out: Path, stdouts: dict, seed: int) -> dict:
        return {f: sha256(out / f) for f in ("policy.tscw", "training_log.csv")}

    def sim_seconds(self, ctx: dict, out: Path) -> dict:
        with open(out / "training_log.csv", newline="") as fh:
            return {"train": float(list(csv.DictReader(fh))[-1]["sim_time_s"])}


class PretrainAe:
    """C5's autoencoder job: a 10k-state buffer under fixed-time control,
    then 40 epochs at latent size 8."""

    name = "pretrain-ae"
    seed_offset = 123

    def prepare(self, setup_dir: Path, seed: int) -> dict:
        return {"seed": self.seed_offset + seed}

    def calls(self, ctx: dict, out: Path) -> list[tuple[str, list[str]]]:
        return [("pretrain-ae", ["pretrain-ae", "--latent", "8", "--epochs", "40",
                                 "--buffer-steps", "10000", "--seed", str(ctx["seed"]),
                                 "--out", str(out / "ae8.tscw")])]

    def check(self, ctx: dict, out: Path, stdouts: dict, seed: int) -> dict:
        mse = [line for line in stdouts["pretrain-ae"].splitlines()
               if "reconstruction mse" in line]
        if len(mse) != 1:
            raise AssertionError(f"no reconstruction mse line in {stdouts!r}")
        return {"ae8.tscw": sha256(out / "ae8.tscw"), "mse": mse[0]}

    def sim_seconds(self, ctx: dict, out: Path) -> dict:
        return {}  # only the traced run counts the collection ticks


WORKLOADS = {w.name: w for w in (EvalGrid(), TrainPpo(), PretrainAe())}

# layers the traced run must see called on each workload
REQUIRED_SPANS = {
    "eval-grid": ("cli", "sim.step", "sim.apply_action", "metrics.feed",
                  "runner.episode", "runner.decide", "baselines.webster_tick",
                  "baselines.webster_recompute", "staterep.expanded",
                  "staterep.kplanes", "neural.predict", "bundle.load"),
    "train-ppo": ("cli", "sim.step", "sim.apply_action", "metrics.feed",
                  "staterep.expanded", "envs.step", "neural.predict",
                  "neural.forward", "neural.backward", "neural.adam",
                  "neural.softmax_sample", "ppo.surrogate", "ppo.update",
                  "ppo.train", "bundle.save"),
    "pretrain-ae": ("cli", "sim.step", "sim.apply_action", "staterep.expanded",
                    "neural.predict", "neural.forward", "neural.backward",
                    "neural.adam", "autoencoder.collect", "autoencoder.fit",
                    "autoencoder.mse"),
}


# -- run record ------------------------------------------------------------------


def blas_info() -> dict:
    """BLAS library numpy was built against and its current thread count."""
    import numpy as np

    info = {"name": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
            "threads": None}
    # wheels bundle OpenBLAS next to the package; loading it again returns
    # the handle numpy already holds
    for lib_path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = lib_path.name
                return info
    return info


def git_info() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine_record(seed: int) -> dict:
    import numpy as np

    return {
        **git_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# -- measurement -----------------------------------------------------------------


def import_seconds() -> tuple[float, float]:
    """Import time of the package in a fresh interpreter, timed there under
    a reference clock: (seconds, reference seconds)."""
    code = ("from refclock import RefClock\n"
            "with RefClock() as clock:\n"
            "    import tsclab.harness.cli\n"
            "print(clock.own_s, clock.reference_s())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    seconds, reference = done.stdout.split()[-2:]
    return float(seconds), float(reference)


def set_up(workload, work: Path, seed: int) -> tuple[dict, list[float], list[float]]:
    """Set the workload up ``SETUP_REPEATS`` times; keep the last set-up.
    Return it with each set-up's time in reference seconds and in seconds."""
    reference, seconds = [], []
    ctx = None
    for k in range(SETUP_REPEATS):
        setup_dir = work / f"setup{k}"
        setup_dir.mkdir(parents=True)
        t_import, ref_import = import_seconds()
        with RefClock() as clock:
            ctx = workload.prepare(setup_dir, seed)
        seconds.append(t_import + clock.own_s)
        reference.append(ref_import + clock.reference_s())
    return ctx, reference, seconds


def run_once(workload, ctx: dict, out: Path, seed: int, tracer,
             clocked: bool) -> dict:
    """One iteration of the workload body, then its output check.

    With ``clocked`` each call is timed under a :class:`RefClock`, else
    plainly; a traced iteration runs with the tracer installed."""
    sample = {"traced": tracer is not None, "calls": {}}
    stdouts = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for label, argv in workload.calls(ctx, out):
            if clocked:
                with RefClock() as clock:
                    code, stdout, stderr = cli(argv)
                call = {"wall_s": clock.own_s, "wall_ref_s": clock.reference_s(),
                        "speed": clock.speed()}
            else:
                t0 = time.perf_counter()
                code, stdout, stderr = cli(argv)
                call = {"wall_s": time.perf_counter() - t0}
            call["exit_code"] = code
            sample["calls"][label] = call
            if code != 0:
                sample["error"] = f"{label} exited with {code}: {stderr.strip()}"
                return sample
            stdouts[label] = stdout
    for key in ("wall_s", "wall_ref_s"):
        if all(key in call for call in sample["calls"].values()):
            sample[key] = sum(call[key] for call in sample["calls"].values())
    try:
        sample["outputs"] = workload.check(ctx, out, stdouts, seed)
        for label, sim_s in workload.sim_seconds(ctx, out).items():
            sample["calls"][label]["sim_s"] = sim_s
    except (AssertionError, OSError, KeyError, ValueError, IndexError) as exc:
        sample["error"] = f"output check: {exc}"
    return sample


def measure(workload, ctx: dict, work: Path, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list]:
    """Run the body for ``seconds``: start no iteration that would, at the
    median length of those before it, end past them, but run at least one.
    With ``trace`` the iterations alternate untraced and traced, starting
    untraced, and go on until at least ``MIN_TRACED`` pairs have run; no
    iteration of a traced run uses the reference clock, so that each pair
    differs only in the tracer."""
    samples, tracers, lengths = [], [], []
    outside_ns = calibrate() if trace else 0
    start = time.perf_counter()
    while True:
        i = len(samples)
        tracer = Tracer(outside_ns) if trace and i % 2 == 1 else None
        out = work / f"iter{i}"
        t0 = time.perf_counter()
        samples.append(run_once(workload, ctx, out, seed, tracer, clocked=not trace))
        lengths.append(time.perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracers.append(tracer)
        ends_at = time.perf_counter() - start + statistics.median(lengths)
        if ends_at > seconds and (not trace or len(tracers) >= MIN_TRACED):
            return samples, tracers


def check_outputs(samples: list[dict], expected: dict | None) -> list[str]:
    """Mark samples whose outputs differ from ``expected`` (or, without it,
    from the first good sample) and return the problems found."""
    problems = [f"iteration {i}: {s['error']}" for i, s in enumerate(samples)
                if "error" in s]
    if expected is None:
        expected = next((s["outputs"] for s in samples if "error" not in s), None)
    for i, s in enumerate(samples):
        if "error" not in s and s["outputs"] != expected:
            s["error"] = "outputs differ from the reference"
            problems.append(f"iteration {i}: outputs differ from the reference: "
                            f"{s['outputs']} != {expected}")
    return problems


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    if not (SRC / "tsclab" / "harness" / "cli.py").exists():
        raise BenchError(f"tsclab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tsclab.harness.cli  # noqa: F401  (imported once before timing)

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ctx, setup_ref, setup_raw = set_up(workload, work, args.seed)
        samples, tracers = measure(workload, ctx, work, args.seed, args.seconds,
                                   bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected_path = HERE / "expected.json"
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(expected_path.read_text()).get(workload.name)
        if expected is None:
            raise BenchError(f"{expected_path} has no outputs for {workload.name}")
    problems = check_outputs(samples, expected)
    failed = sum("error" in s for s in samples)
    timed = [s for s in samples if not s["traced"] and "wall_s" in s]
    if not timed:
        raise BenchError("no untraced iteration ran to the end: "
                         + "; ".join(problems))
    values = {
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "fail_frac": failed / len(samples),
        "iterations": len(timed),
        "setup_s (seconds)": statistics.median(setup_raw),
        "wall_s (seconds)": statistics.median(s["wall_s"] for s in timed),
    }
    if not args.trace:
        values["wall_ref_s"] = statistics.median(s["wall_ref_s"] for s in timed)
        info["speed (loop time / nominal)"] = statistics.median(
            call["speed"] for s in timed for call in s["calls"].values())
    for label in timed[0]["calls"]:
        calls = [s["calls"][label] for s in timed]
        if "sim_s" in calls[0]:
            info[f"sim_s.{label}"] = statistics.median(c["sim_s"] for c in calls)
            info[f"sim_s_per_s.{label}"] = statistics.median(
                c["sim_s"] / c["wall_s"] for c in calls)
            if not args.trace:
                info[f"sim_s_per_ref_s.{label}"] = statistics.median(
                    c["sim_s"] / c["wall_ref_s"] for c in calls)
    if tracers:
        layers = layer_metrics(tracers)
        # each traced iteration against the untraced one just before it, so
        # that the machine's drift over a run cancels out
        layers["trace.overhead"] = statistics.median(
            samples[i]["wall_s"] / samples[i - 1]["wall_s"]
            for i in range(1, len(samples), 2)
            if "wall_s" in samples[i] and "wall_s" in samples[i - 1])
        missing = [n for n in REQUIRED_SPANS[workload.name]
                   if layers[f"{n}.calls"] == 0]
        if missing:
            raise TraceError(f"{workload.name}: no calls recorded for {missing}")
        values.update(layers)
        info["trace_outside_ns"] = tracers[0].outside_ns
        info["work"] = {"sim_s": layers["sim.step.calls"],
                        "decisions": layers["sim.apply_action.calls"],
                        "updates": layers["work.updates"],
                        "vehicles": layers["sim.vehicles"]}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "setup_samples_ref_s": setup_ref,
        "setup_samples_s": setup_raw,
        "samples": samples,
        "problems": problems,
        "info": info,
        "metrics": values,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in problems:
        print(f"FAIL {problem}")
    for key, value in sorted(info.items()):
        print(f"{key}: {value}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
