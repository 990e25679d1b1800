#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/perfbench.exe with dune, runs it, and passes its output
and exit status through: the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Repeat mode runs one workload N times, with seeds 1..N, and prints the
median and quartiles of every metric, with the host it ran on:

    python3 perfbench/run.py --workload <name> --repeat N [--seconds s] [--trace 0|1]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    r = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def check_names(res, trace):
    """The run's metric names and units must be BENCHMARK.json's."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, units "
                 f"{sorted(k for k in want if k in got and got[k] != want[k])}")


def run_once(workload, seed, seconds, trace):
    env = dict(os.environ)
    # the runtime-events ring (GC pauses, traced runs) lives in the checkout
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = out
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       text=True)
    res = None
    if r.stdout.strip():
        try:
            res = json.loads(r.stdout.strip().splitlines()[-1])
        except ValueError:
            pass
    if res is not None:
        check_names(res, trace)
    return r.returncode, r.stdout, res


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                              stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        return "unknown"


def repeat(a):
    rows = []
    for seed in range(1, a.repeat + 1):
        code, out, res = run_once(a.workload, seed, a.seconds, a.trace)
        if code != 0 or res is None or not res["correct"]:
            sys.stdout.write(out)
            sys.exit(f"perfbench: seed {seed} failed its checks")
        rows.append(res["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            flush=True)
    print(f"host: {os.cpu_count()} cpus, {platform.machine()}, "
          f"OCaml {ocaml_version()}; workload {a.workload}, "
          f"{a.repeat} runs of {a.seconds} s, trace {a.trace}")
    print(f"{'metric':36s} {'unit':6s} {'q1':>14s} {'median':>14s} "
          f"{'q3':>14s} {'iqr/median':>10s}")
    for name in rows[0]:
        vals = [r[name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} {rows[0][name]['unit']:6s} {q1:14.6g} {med:14.6g} "
              f"{q3:14.6g} {spread:10.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    a = p.parse_args()
    build()
    if a.repeat > 0:
        repeat(a)
        return
    code, out, _ = run_once(a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
