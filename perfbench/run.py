#!/usr/bin/env python3
"""fibertpa benchmark: one seeded workload per run, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src/`` and nowhere else.
Jobs run one after another in this process with BLAS/OpenMP pinned to
one thread; each job is timed alone and checked against the oracles
after its timing stops.  Generated inputs go to ``.perfbench/`` in the
checkout and are removed at the end, except the span file of a traced
run.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
fresh interpreters), per-job p50/p90, items per second and peak RSS.
``--trace 1`` alternates untraced and traced blocks of jobs, runs each
CLI subcommand once in-process, and prints the per-layer metrics.  The
last line is one JSON object: correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
READY = "perfbench-ready"
CLI_SUBCOMMANDS = ("simulate-c2pef", "invert-c2pa", "e2pa-bound",
                   "entanglement-time", "synth-frames", "analyze-frames", "report")
# per-layer metrics derived from the inputs rather than timed or read from disk
COMPUTED = ("jsa.fft_points", "frames.bytes_read", "frames.files",
            "c2pa.n_lambda", "src_lines")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print a ready line and exit (set-up timing)")
    return p.parse_args(argv)


def set_up(args, work: Path):
    """Everything between process start and the first job."""
    src = ROOT / "src"
    if not (src / "fibertpa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fibertpa sources under {src}")
    sys.path.insert(0, str(src))
    import fibertpa
    if Path(fibertpa.__file__).resolve().parent != (src / "fibertpa").resolve():
        raise SystemExit(f"perfbench: imported fibertpa from {fibertpa.__file__}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    return wl, wl.setup()


def setup_samples(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line != READY or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
        samples.append(elapsed)
    return samples


class Runner:
    """Runs whole blocks of jobs until about ``seconds`` of job time.

    Each job is timed alone; its checks run after the timing stops.  A new
    block starts only while half a block more keeps the total nearer to
    ``seconds`` than stopping would, and never after twice ``seconds`` of
    wall time, so jobs that fail at once cannot keep the run going.
    """

    def __init__(self, wl, first_block, seconds):
        self.wl, self.seconds = wl, seconds
        self.pending = first_block
        self.blocks = 0
        self.times, self.items, self.failures = [], 0, []
        self.start = time.perf_counter()

    def more(self) -> bool:
        if time.perf_counter() - self.start > 2 * self.seconds:
            return False
        spent = sum(self.times)
        return not self.blocks or spent + 0.5 * spent / self.blocks < self.seconds

    def next_block(self):
        jobs = self.pending or self.wl.prepare_block(self.blocks)
        self.pending = None
        self.blocks += 1
        return jobs

    def run_job(self, job, tracer=None) -> float:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.run(job)
            else:
                with tracer.span("bench.job", job=str(job.index)):
                    result = self.wl.run(job)
        except Exception as exc:  # a failed job is counted, not fatal
            dt = time.perf_counter() - t0
            self.failures.append((job.index, f"{type(exc).__name__}: {exc}"))
        else:
            dt = time.perf_counter() - t0
            try:
                errors = self.wl.check(job, result)
            except Exception as exc:  # e.g. an oracle's building block disagrees
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            self.failures += [(job.index, e) for e in errors]
        self.times.append(dt)
        self.items += job.items
        return dt

    @property
    def failed(self) -> int:
        return len({j for j, _ in self.failures})


def run_untraced(wl, first_block, seconds) -> Runner:
    r = Runner(wl, first_block, seconds)
    while r.more():
        for job in r.next_block():
            r.run_job(job)
            wl.discard(job)
    return r


def run_traced(wl, first_block, seconds, tracer):
    """Blocks alternate untraced/traced as U T T U U T T U ... and stop
    after an even number, so both sides run the same number of blocks."""
    r = Runner(wl, first_block, seconds)
    side_time = {False: 0.0, True: 0.0}
    traced_jobs = []
    while r.more() or r.blocks % 2:
        traced = r.blocks % 4 in (1, 2)
        jobs = r.next_block()
        if traced:
            tracer.install()
        try:
            for job in jobs:
                side_time[traced] += r.run_job(job, tracer if traced else None)
        finally:
            tracer.uninstall()
        for job in jobs:
            if traced:
                traced_jobs.append((job, _written(job.params.get("out"))))
            wl.discard(job)
    return r, side_time, traced_jobs


def _written(out_dir):
    """(bytes, files) in a frame-series directory, or None."""
    if out_dir is None or not Path(out_dir).is_dir():
        return None
    sizes = [p.stat().st_size for p in Path(out_dir).iterdir()]
    return sum(sizes), len(sizes)


def cli_pass(args, work, tracer, runner):
    """One traced in-process ``fibertpa.cli.main`` call per subcommand on
    freshly generated inputs; a non-zero exit counts as a failure."""
    from fibertpa import cli
    import workloads as w

    gen = w.Workload(ROOT, work, args.seed)
    rng = gen.rng(w.SETUP_KEY)
    configs = [gen.write_config(f"cli_{base}", base,
                                gen.bases[base]["fluorophore"]["concentration_m"], rng)[0]
               for base in w.BASES]
    jsi = work / "cli_jsi.csv"
    sigma_minus = w.sigma_minus_for(1070.0)
    w.write_anticorrelated_jsi(jsi, w.JSI_GRID_LEVELS[0], sigma_minus, 0.4 * sigma_minus)
    frames_dir = work / "cli_frames"
    argv = {
        "simulate-c2pef": ["--config", str(configs[2]), "--sigma-c-gm",
                           repr(float(10 ** rng.uniform(2.0, 3.0))),
                           "--out", str(work / "cli_sim")],
        "invert-c2pa": [x for c in configs[:3] for x in ("--config", str(c))],
        "e2pa-bound": ["--config", str(configs[3]), "--flb", "1.0"],
        "entanglement-time": ["--jsi", str(jsi), "--gdd-fs2", "2100",
                              "--gvd-fs2-per-cm", "1034", "--out", str(work / "cli_te")],
        "synth-frames": ["--truth-rate", "1.6", "--n", str(w.FRAMES_PER_SERIES),
                         "--seed", str(args.seed), "--drift", "ramp",
                         "--drift-magnitude", "0.1", "--out", str(frames_dir)],
        "analyze-frames": ["--manifest", str(frames_dir / "manifest.json"),
                           "--out", str(work / "cli_analysis")],
        "report": ["--config", str(configs[3])],
    }
    durations = {}
    tracer.install()
    try:
        for sub in CLI_SUBCOMMANDS:
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with tracer.span(f"cli.{sub}", job=f"cli:{sub}"), \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    rc = cli.main([sub, *argv[sub]])
            except SystemExit as exc:
                rc = exc.code
            durations[sub] = time.perf_counter() - t0
            if rc != 0:
                runner.failures.append((f"cli {sub}", f"exit {rc}: {out.getvalue()[-300:]}"))
    finally:
        tracer.uninstall()
    return durations, _written(frames_dir), len(configs)


def layer_metrics(tracer, side_time, traced_jobs, cli_durations, cli_frames,
                  cli_configs) -> dict:
    import workloads as w

    m = tracer.summary()
    for sub, dt in cli_durations.items():
        m[f"cli.{sub}_s"] = dt
    # per depth and per series, over the traced jobs plus the CLI pass
    grids = [job.params["n"] for job, _ in traced_jobs if "n" in job.params]
    grids.append(w.JSI_GRID_LEVELS[0])
    depths = len(grids) * len(w.Z_GRID_CM)
    m["jsa.depth_ms"] = m["jsa.entanglement_time_profile.busy_s"] / depths * 1e3
    m["jsa.fft_points"] = sum((4 * n) ** 2 for n in grids) / len(grids)
    series = [f for _, f in traced_jobs if f] + [cli_frames]
    m["frames.bytes_written"] = sum(b for b, _ in series) / len(series)
    m["frames.bytes_read"] = m["frames.bytes_written"]   # read_series opens every file
    m["frames.files"] = sum(n for _, n in series) / len(series)
    n_lambda = [job.n_lambda for job, _ in traced_jobs if job.n_lambda] + [1] * cli_configs
    m["c2pa.n_lambda"] = sum(n_lambda) / len(n_lambda)
    m["trace.jobs_s"] = side_time[True]
    m["trace.overhead_frac"] = (side_time[True] - side_time[False]) / side_time[False]
    m["src_lines"] = sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py")))

    in_jobs = tracer.layer_self(under="bench.job")
    total = tracer.root_total("bench.job")
    print(f"traced job time {total:.4f} s; self time by layer inside jobs:")
    for layer, t in in_jobs.items():
        print(f"  {layer:8s} {t:10.4f} s  {t / total:6.1%}")
    if abs(sum(in_jobs.values()) - total) > 1e-9 * max(total, 1.0):
        raise RuntimeError("layer self times do not add up to the traced job time")
    print(f"  sum      {sum(in_jobs.values()):10.4f} s (equals the traced job time)")
    return m


def benchmark_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        wl, first_block = set_up(args, work)
        if args.setup_probe:
            print(READY, flush=True)
            return 0
        own_setup = time.perf_counter() - t_start
        import spans
        import workloads as w

        if args.trace:
            tracer = spans.Tracer()
            runner, side_time, traced_jobs = run_traced(wl, first_block, args.seconds,
                                                        tracer)
            cli_durations, cli_frames, cli_configs = cli_pass(args, work, tracer, runner)
            attempted = len(runner.times) + len(cli_durations)
            metrics = layer_metrics(tracer, side_time, traced_jobs, cli_durations,
                                    cli_frames, cli_configs)
            units = benchmark_units("per_layer")
            notes = {k: "computed" for k in COMPUTED}
            dump = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            tracer.dump(dump)
            print(f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
        else:
            runner = run_untraced(wl, first_block, args.seconds)
            attempted = len(runner.times)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup = setup_samples(args)
            times = runner.times
            p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
            metrics = {
                "setup_s": statistics.median(setup),
                "job_s.p50": statistics.median(times),
                "job_s.p90": p90,
                "items_per_s": runner.items / sum(times),
                "peak_rss_mb": rss_mb,
            }
            units = benchmark_units("end_to_end")
            notes = {
                "setup_s": f"median of n={len(setup)} fresh interpreters "
                           f"(this process: {own_setup:.3f} s)",
                "job_s.p50": f"n={len(times)} jobs",
                "job_s.p90": f"n={len(times)} jobs, {sum(t > p90 for t in times)} beyond",
                "items_per_s": f"{runner.items} {wl.item}s in {sum(times):.2f} s of jobs",
                "peak_rss_mb": "n=1 process",
            }
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not produced: {sorted(missing)}")
        print(f"workload {args.workload}, seed {args.seed}: {runner.blocks} blocks "
              f"of {w.BLOCK} jobs, trace {args.trace}")
        for name, unit in units.items():
            print(f"  {name:44s} {metrics[name]:16.6f} {unit:5s} {notes.get(name, 'measured')}")
        print(f"  {'failed_frac':44s} {runner.failed / attempted:16.6f} {'1':5s} "
              f"n={attempted} jobs")
        for job, message in runner.failures[:20]:
            print(f"FAILED job {job}: {message}")
        print(json.dumps({
            "correct": not runner.failures,
            "attempted": attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
