"""perfbench: the tacticbench performance benchmark.

Run from the repository root:

  python3 perfbench/run.py                       # every workload, untraced then traced
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-golden       # rewrite perfbench/golden.json

One workload run plays passes over the workload's inputs until the next
pass would end after ``--seconds``, checks every episode against the golden
digest, and prints a JSON object as its last line of output: end-to-end
metrics untraced, per-layer metrics traced.  Times are in reference
seconds: wall seconds corrected for the machine's speed, which probes
interleaved with the work measure (see ``speed.py``).  Without
``--workload`` every workload runs in a fresh process, twice (untraced,
traced), and the command exits non-zero if any output differs from its
golden digest.
"""
from __future__ import annotations

import os

# one thread: numpy's BLAS pools read these when first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 7
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_id() -> str:
    """sha256 over the program's source tree: the commit, without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tacticbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _machine() -> str:
    u = os.uname()
    return (
        f"machine={u.sysname} {u.release} {u.machine} cpus={os.cpu_count()} "
        f"python={platform.python_version()} source={_source_id()}"
    )


def _tail(times: list[float]) -> tuple[float, float, int] | None:
    """Highest grid percentile with at least ten episodes beyond it."""
    n = len(times)
    usable = [p for p in TAIL_GRID if n * (100 - p) / 100 >= 10]
    if not usable:
        return None
    p = usable[-1]
    ordered = sorted(times)
    return p, ordered[min(n - 1, int(n * p / 100))], n


def _check(golden: dict | None, episodes, artifacts: dict) -> tuple[int, list[str]]:
    """Failures of one pass against its golden entry, with messages."""
    if golden is None:
        return max(1, len(episodes)), ["no golden digest for this workload and seed"]
    expected = golden["episodes"]
    failed, notes = 0, []
    for i in range(max(len(expected), len(episodes))):
        ep = episodes[i] if i < len(episodes) else None
        want = expected[i] if i < len(expected) else None
        if ep is None or ep.failed or ep.golden() != want:
            failed += 1
            if len(notes) < 5:
                notes.append(f"episode {i}: got {ep.golden() if ep else None}, want {want}")
    for key, value in artifacts.items():
        if golden["artifacts"].get(key) != value:
            failed += 1
            notes.append(f"{key}: got {value}, want {golden['artifacts'].get(key)}")
    return failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_start = perf_counter()
    import workloads

    workload = workloads.make_workload(name, workloads.pool_seed(seed), OUT / "tmp")
    setup_s = perf_counter() - setup_start
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = goldens.get(name, {}).get(str(workloads.pool_seed(seed)))

    probe = SpeedProbe()
    tracer = None
    if trace:
        import layers
        from spans import Tracer

        tracer = Tracer(probe.clock)
        layers.install(tracer)
    recorder = workloads.EpisodeRecorder(probe)
    recorder.install()

    failed, notes, transcript_bytes = 0, [], 0
    walls: list[float] = []  # wall seconds of each pass, probes included
    runs: list[float] = []  # reference seconds of each pass
    times: list[float] = []  # reference seconds of each episode
    probe.install()
    try:
        begin = perf_counter()
        whole = probe.mark()
        while True:  # play passes until the next one would end after `seconds`
            mark, digest_before = len(recorder.episodes), recorder.digest_s
            since, start, wall = probe.mark(), probe.clock(), perf_counter()
            state = workload.run_pass()
            work = probe.clock() - start - (recorder.digest_s - digest_before)
            scale = probe.scale(since)
            walls.append(perf_counter() - wall)
            runs.append(work * scale)
            times += [e.seconds * (e.scale or scale) for e in recorder.episodes[mark:]]
            artifacts, matchups_failed = workload.artifacts(state)
            transcript_bytes = getattr(workload, "transcript_bytes", 0)
            pass_failed, pass_notes = _check(golden, recorder.episodes[mark:], artifacts)
            failed += pass_failed + matchups_failed
            notes += pass_notes
            if perf_counter() - begin + statistics.median(walls) > seconds:
                break
        run_scale = probe.scale(whole)
    finally:
        probe.restore()
        recorder.restore()
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    episodes = recorder.episodes
    attempted = max(len(episodes), 1)
    failed = min(failed, attempted)
    per_pass = len(episodes) // len(runs)
    model_episodes = [e for e in episodes if e.model_calls]
    calls_per_episode = statistics.fmean(e.model_calls for e in model_episodes) if model_episodes else 0.0
    chars_per_episode = statistics.fmean(e.prompt_chars for e in model_episodes) if model_episodes else 0.0
    run_s = statistics.median(runs)

    print(f"# perfbench {name} seed={seed} (input pool seed {workloads.pool_seed(seed)}) trace={int(trace)}")
    print(f"# {_machine()}")
    print(f"# passes={len(walls)} episodes={len(episodes)} per pass={per_pass} "
          f"failed={failed} failed_ratio={failed / attempted:.4f}")
    print("# pass wall seconds: " + " ".join(f"{w:.3f}" for w in walls))
    print("# pass reference seconds: " + " ".join(f"{r:.3f}" for r in runs)
          + f"; {probe.count} speed probes, mean {probe.spent / probe.count * 1e3:.3f} ms"
          + f" (reference {REFERENCE_S * 1e3:g} ms)")
    tail = _tail(times)
    if tail:
        print(f"# episode_s_tail p{tail[0]:g} = {tail[1]:.4f} s (n={tail[2]})")
    else:
        print(f"# episode_s_tail: omitted, {len(times)} episodes leave no percentile with 10 beyond it")
    print(f"# model_calls_per_episode={calls_per_episode:.1f} prompt_chars_per_episode={chars_per_episode:.0f} "
          f"(over {len(model_episodes)} episodes with model calls)")
    for e in episodes[:per_pass]:
        if e.model_calls:
            print(f"#   calls {e.scenario} seed={e.seed}: {e.model_calls}")
    for note in notes[:10]:
        print(f"# MISMATCH {note}")

    if tracer is None:
        probes = [_probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "run_s": run_s,
            "episodes_per_s": per_pass / run_s,
            "episode_s_p50": statistics.median(times),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"# setup_s in this process = {setup_s:.4f} wall s, fresh interpreters = "
              + ", ".join(f"{p:.4f}" for p in probes))
    else:
        import layers

        metrics = layers.layer_metrics(tracer, len(walls), run_scale)
        metrics.update({
            "bench.transcript_bytes": transcript_bytes,
            "agents.client.calls_retained": recorder.calls_retained,
            "model_calls_per_episode": calls_per_episode,
            "prompt_chars_per_episode": chars_per_episode,
            "failed_ratio": failed / attempted,
            "trace.run_s": run_s,
        })
        tracer.dump(OUT / f"{name}-seed{seed}.spans.npz")

    units = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"BENCHMARK.json declares metrics this run does not measure: {missing}", file=sys.stderr)
        return 2
    for metric, unit in units.items():
        print(f"#   {metric:34s} {metrics[metric]:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, in reference seconds: import
    tacticbench, build inputs."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import speed; "
        "probe = speed.SpeedProbe(); probe.install(); since, t = probe.mark(), probe.clock(); "
        f"import workloads; workloads.make_workload({name!r}, workloads.pool_seed({seed}), None); "
        "s = (probe.clock() - t) * probe.scale(since); probe.restore(); print(s)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def record_golden(names: list[str]) -> int:
    """Play one pass per workload and pool seed; write the digests."""
    import workloads

    for name in names:
        entries = {}
        for seed in range(workloads.POOL_SIZE):
            workload = workloads.make_workload(name, seed, OUT / "tmp")
            recorder = workloads.EpisodeRecorder()
            recorder.install()
            try:
                artifacts, matchups_failed = workload.artifacts(workload.run_pass())
            finally:
                recorder.restore()
            bad = [e for e in recorder.episodes if e.failed]
            if bad or matchups_failed:
                print(f"{name} seed {seed}: {len(bad)} failed episodes, "
                      f"{matchups_failed} failed matchups", file=sys.stderr)
                return 1
            entries[str(seed)] = {
                "episodes": [e.golden() for e in recorder.episodes],
                "artifacts": artifacts,
            }
            print(f"{name} seed {seed}: {len(recorder.episodes)} episodes", flush=True)
        goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        goldens[name] = entries
        _write_golden(goldens)
    return 0


def _write_golden(goldens: dict) -> None:
    """One line per workload and seed, so a changed digest shows in a diff."""
    blocks = []
    for name, entries in sorted(goldens.items()):
        rows = [f"  {json.dumps(seed)}: {json.dumps(entries[seed], sort_keys=True)}"
                for seed in sorted(entries, key=int)]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n}")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    spec = _spec()
    print(f"# {_machine()}")
    results: dict[tuple[str, int], dict] = {}
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            results[(workload["name"], trace)] = json.loads(lines[-1])
    print("\n# summary")
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = results.get((name, trace))
            if res is None:
                continue
            for m in spec[section]:
                metric = res["metrics"][m["name"]]
                print(f"{name:28s} {m['name']:34s} {metric['value']:14.6f} {metric['unit']}")
        if (name, 0) in results and (name, 1) in results:
            overhead = (results[(name, 1)]["metrics"]["trace.run_s"]["value"]
                        - results[(name, 0)]["metrics"]["run_s"]["value"])
            print(f"{name:28s} {'trace.overhead_s':34s} {overhead:14.6f} s")
    import workloads

    for scenario, opponent, calls, regenerations in workloads.baseline_calls():
        print(f"# baseline: TactiCrafter {scenario} vs {opponent}, seed 0: "
              f"{calls} model calls, {regenerations} regenerations")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tacticbench" / "__init__.py").is_file():
        print(f"perfbench: no tacticbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.record_golden:
        return record_golden([args.workload] if args.workload else names)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
