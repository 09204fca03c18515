"""Benchmark of the dimonoids census and query paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout: the package is imported from
the checkout's own `src/` (never an installed copy) in child processes, and
every child's `dimonoids.__file__` is checked.  Work files, and the spans of
traced runs, go to `.perfbench/` at the checkout root.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, their times corrected
for the host's speed drift by a reference loop (see Reference); with
--trace 1 they are the per-layer ones from a separate traced run.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CENSUS = {"census-dimonoid-4": "dimonoid", "census-doppel-4": "doppelsemigroup",
          "census-semigroup-4": "semigroup"}
WORKLOADS = (*CENSUS, "queries")
CENSUS_ORDER = 4
# Set-up is sampled on both sides of the measured loop, so one slow stretch
# of a shared machine does not decide it; setup_s is the median.
IMPORT_PROBES = 6   # cold imports per side in a census run
QUERY_SETUPS = 1    # extra query processes set up per side
CLI = "import sys; from dimonoids.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import json, time; t = time.perf_counter(); import dimonoids; "
                "print(json.dumps({'import_s': time.perf_counter() - t, "
                "'file': dimonoids.__file__, 'version': dimonoids.__version__}))")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env():
    env = dict(os.environ)
    env.pop("DIMONOIDS_WORKERS", None)  # one worker
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Reference:
    """The speed reference (`reference.py`), in a process of its own.

    On a shared host the speed of Python code drifts, by up to 1.5 times
    over minutes, with the load other tenants put on the machine; the
    reference's basket of small loops slows down with it.  It is sampled
    only while no measured work runs (the child is stopped, or between
    children), so the two never compete.  A sample is the machine's speed
    relative to the basket's nominal speed; a time measured at speed v is
    reported as that time * v: the time at nominal speed."""

    EVERY_S = 1.0      # a census command is stopped for a sample this often

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT)
        try:
            self.last = self.sample()
        except BaseException:
            self.close()
            raise

    def sample(self):
        """The machine's speed now; also kept as `last`."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the speed reference exited")
        self.last = float(line)
        return self.last

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def spawn(argv, stdout_path, reference=None, stop_every=None):
    """Run a child to completion: (wall seconds, peak RSS MB, exit code,
    machine speeds).

    With a reference, the speeds are the sample taken last before the child
    starts, one for each time the child stops (this process stops it every
    `stop_every` seconds if given; a child may also stop itself) and one
    after it exits.  The wall time leaves out the stops."""
    speeds = [reference.last] if reference else []
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid) if stop_every else None
        wall = 0.0
        try:
            while True:
                if pidfd is not None and not select.select([pidfd], [], [], stop_every)[0]:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED if reference else 0)
                wall += time.perf_counter() - start
                if not os.WIFSTOPPED(status):
                    break
                speeds.append(reference.sample())
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if pidfd is not None:
                os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if reference:
        speeds.append(reference.sample())
    return wall, usage.ru_maxrss / 1024, proc.returncode, speeds


def last_json(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise BenchError(f"child wrote nothing to {path}; see {path}.err")
    return json.loads(lines[-1])


def check_package(probe):
    if not Path(probe["file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"measured dimonoids from {probe['file']}, not from {SRC}")


def tail(samples):
    """(label, value): the highest of p98, p95, p90, p75 with at least ten
    samples beyond it, else the median.  p98 is the cap so that a faster
    program, which fits more samples in a run, is measured at the same rank;
    a `queries` run holds well over the 500 samples p98 needs, and there the
    rank falls in the middle of the order-3 classify/problem1 requests,
    clear of the jumps in latency on either side of them.  Below 40 samples
    (census runs) no tail is resolved and the median stands in."""
    s = sorted(samples)
    for p in (98, 95, 90, 75):
        if len(s) * (100 - p) / 100 >= 10:
            return f"p{p}", s[math.ceil(len(s) * p / 100) - 1]
    return "p50", statistics.median(s)


def latency_metrics(latencies, busy_s):
    label, worst = tail(latencies)
    median = statistics.median(latencies)
    return {"wall_s": median, "query_p50_ms": median * 1e3, "query_tail_ms": worst * 1e3,
            "query_rate_per_s": len(latencies) / busy_s}, {"tail": label,
                                                           "samples": len(latencies)}


# ---------------------------------------------------------------------------
# census workloads: cold `dimonoids classify --order 4 --kind K --format json`

class Census:
    def __init__(self, kind, order, work):
        self.kind = kind
        self.order = order
        self.work = work
        self.argv = ["classify", "--order", str(order), "--kind", kind, "--format", "json"]
        self.verdicts = {}
        self.problems = []

    def check(self, code, path):
        data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = oracle.check_report_json(data, self.order, self.kind)
            except (ValueError, KeyError, TypeError) as exc:
                self.verdicts[digest] = [f"unreadable report: {exc!r}"]
        problems = self.verdicts[digest] + ([f"exit {code}"] if code else [])
        self.problems += problems[:3]
        return not problems

    def cold(self, reference=None):
        """One untraced cold command: (wall s, peak RSS MB, output correct,
        machine speed).  With a reference the command is stopped every
        Reference.EVERY_S for a sample, and the speed is their mean."""
        path = self.work / "census.out"
        wall, rss, code, speeds = spawn([sys.executable, "-c", CLI, *self.argv], path,
                                        reference, reference and Reference.EVERY_S)
        return wall, rss, self.check(code, path), statistics.fmean(speeds) if speeds else None

    def imports(self, probes=IMPORT_PROBES, reference=None):
        """Times of cold `import dimonoids`, one fresh process each, at the
        reference's nominal speed if one is given."""
        times = []
        for i in range(probes):
            path = self.work / f"import{i}.out"
            _, _, code, speeds = spawn([sys.executable, "-c", IMPORT_PROBE], path, reference)
            if code:
                raise BenchError(f"import probe exited {code}; see {path}.err")
            probe = last_json(path)
            check_package(probe)
            times.append(probe["import_s"] * (statistics.fmean(speeds) if speeds else 1))
        return times, probe

    def measure(self, seconds, reference):
        imports, probe = self.imports(reference=reference)
        walls, raw, speeds, rss, failed = [], [], [], [], 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, peak, ok, factor = self.cold(reference)
            walls.append(wall * factor)
            raw.append(wall)
            speeds.append(factor)
            rss.append(peak)
            failed += not ok
        imports += self.imports(reference=reference)[0]
        metrics, info = latency_metrics(walls, sum(walls))
        metrics.update(peak_rss_mb=statistics.median(rss), setup_s=statistics.median(imports))
        info.update(raw_wall_s=statistics.median(raw), speed=statistics.median(speeds))
        return metrics, info, len(walls), failed, probe

    def trace(self, spans_path):
        _, probe = self.imports(1)
        untraced, _, ok_untraced, _ = self.cold()
        path = self.work / "traced.out"
        report = self.work / "traced.json"
        wall, _, code, _ = spawn([sys.executable, str(HERE / "tracer.py"), str(spans_path),
                                  str(self.order), "--", *self.argv, "--out", str(report)],
                                 path)
        if code:
            raise BenchError(f"traced command exited {code}; see {path}.err")
        child = last_json(path)
        ok_traced = self.check(child["exit"], report)
        traced = wall - child["post_s"]
        facts = dict(child["facts"], tables={int(k): v for k, v in child["facts"]["tables"].items()})
        metrics = tracer.summarize(tracer.read_spans(spans_path), facts, {"op": traced})
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_frac"] = traced / untraced - 1
        return metrics, {"untraced_s": untraced, "traced_s": traced}, 2, \
            (not ok_untraced) + (not ok_traced), probe


# ---------------------------------------------------------------------------
# queries workload: one long-lived client process, see queries.py

def queries(work, seed, seconds, trace, smoke, spans_path, reference):
    base = [sys.executable, str(HERE / "queries.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", str(work)] + (["--smoke"] if smoke else [])

    def setups():
        times = []
        for _ in range(0 if trace else QUERY_SETUPS):
            path = work / "setup.out"
            _, _, code, speeds = spawn(base + ["--setup-only"], path, reference)
            if code:
                raise BenchError(f"query setup exited {code}; see {path}.err")
            times.append(last_json(path)["setup_s"] * statistics.fmean(speeds))
        return times

    before = setups()
    path = work / "queries.out"
    extra = (["--trace", "1", "--spans", str(spans_path)] if trace else
             ["--trace", "0", "--stop-every", str(Reference.EVERY_S)])
    _, rss, code, speeds = spawn(base + extra, path, reference)
    if code:
        raise BenchError(f"query client exited {code}; see {path}.err")
    res = last_json(path)
    check_package(res)
    info = {"requests_per_pass": res["requests"], "failures": res["failures"]}
    if trace:
        metrics = res["metrics"]
    else:
        latencies, busy_s, setup_s = at_nominal_speed(res, speeds)
        metrics, more = latency_metrics(latencies, busy_s)
        metrics.update(peak_rss_mb=rss, setup_s=statistics.median(before + [setup_s] + setups()))
        info.update(more, raw_query_p50_ms=statistics.median(res["latencies"]) * 1e3,
                    speed=statistics.fmean(speeds))
    return metrics, info, len(res["latencies"]), res["failed"], res


def at_nominal_speed(res, speeds):
    """The client's latencies, loop time and set-up time at the reference's
    nominal speed.  The client stopped itself after set-up and then about
    every Reference.EVERY_S between requests, noting each time the requests
    done and loop seconds so far; speeds[k + 1] was sampled at its k-th stop,
    speeds[0] before it started and speeds[-1] after it exited.  Each stretch
    between stops takes the factor of the samples at its two ends."""
    stops = res["stops"] + [[len(res["latencies"]), res["loop_s"]]]
    if len(speeds) != len(stops) + 1:
        raise BenchError(f"client stopped {len(speeds) - 2} times but noted {len(stops) - 1}")
    latencies, busy_s = [], 0.0
    for k in range(len(stops) - 1):
        (i, t), (j, u) = stops[k], stops[k + 1]
        factor = statistics.fmean(speeds[k + 1:k + 3])
        latencies += [x * factor for x in res["latencies"][i:j]]
        busy_s += (u - t) * factor
    return latencies, busy_s, res["setup_s"] * statistics.fmean(speeds[:2])


# ---------------------------------------------------------------------------

def provenance(probe):
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            commit = got.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "version": probe["version"],
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def run(workload, seed, seconds, trace, smoke=False):
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    try:
        # traced runs report per-layer figures, which are not corrected
        with contextlib.nullcontext() if trace else Reference() as reference:
            if workload == "queries":
                metrics, info, attempted, failed, probe = queries(
                    work, seed, seconds, trace, smoke, spans_path, reference)
            else:
                census = Census(CENSUS[workload], 3 if smoke else CENSUS_ORDER, work)
                metrics, info, attempted, failed, probe = (
                    census.trace(spans_path) if trace else census.measure(seconds, reference))
                info["problems"] = census.problems[:10]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        info["spans"] = str(spans_path.relative_to(ROOT))
    info["failed_frac"] = failed / attempted
    return {"workload": workload, "seed": seed, "trace": trace, **provenance(probe),
            "info": info}, {"correct": failed == 0, "attempted": attempted,
                            "failed": failed, "metrics": metrics}


UNITS = {"wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
         "query_rate_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    base = re.sub(r"\.order\d+$", "", name)
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_frac", "fraction"),
                         ("_ratio", "ratio")):
        if base.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="order-3 censuses and a short query list, every oracle, in seconds")
    args = ap.parse_args(argv)
    if not (SRC / "dimonoids" / "__init__.py").is_file():
        print(f"error: no dimonoids sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    # a terminated run still stops and waits for its children (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        record, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in result["metrics"].items()}
    print(json.dumps(record))
    for name, m in result["metrics"].items():
        print(f"{name:36} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':36} {record['info']['failed_frac']:>16.6g} fraction")
    print(json.dumps(result))
    return 0


def smoke():
    """Every workload at a size that takes seconds; exit 1 on any failure."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                record, result = run(workload, 1, 0, trace, smoke=True)
            except BenchError as exc:
                print(json.dumps({"workload": workload, "trace": trace, "error": str(exc)}))
                bad += 1
                continue
            print(json.dumps({"workload": workload, "trace": trace, "attempted":
                              result["attempted"], "failed": result["failed"],
                              "info": record["info"]}))
            bad += result["failed"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
