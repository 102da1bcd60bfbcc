#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the `dca` simulator.

Run from the repository root:

    python3 perfbench/run.py --workload sampling_cold --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each exists):

  sampling_cold    `dca figures sampling --scale paper`, fresh process, empty store
  gcc_static_cold  `dca compare --bench gcc --schemes static --scale paper`, empty store
  served_warm      `dca serve --http-addr 127.0.0.1:0 --jobs 2`: two keep-alive
                   HTTP clients in a closed loop of warm sampling requests

The benchmark builds the release `dca` binary and the `perfbench/replay`
package from source, drives `dca` as a user would, checks every output
against pinned values and counts each wrong output as a failed
operation. Human-readable lines go to stdout; the
last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
from the traced replay with `--trace 1`).

Everything the benchmark writes stays inside the checkout: the build in
`$CARGO_TARGET_DIR` (default `.bench_build`), scratch state in
`.bench_work` (removed at exit), and traces plus a per-run history with
host steal time in `.bench_out`.
"""

import argparse
import http.client
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
TICK = os.sysconf("SC_CLK_TCK")

WORKLOADS = ("sampling_cold", "gcc_static_cold", "served_warm")

# served_warm request mix: two clients, one canonical key each. Both
# keys are backed by the same stored intervals, so both are warm, and
# distinct keys never coalesce by timing accident.
CLIENT_ARGS = (
    ["--scale", "paper"],
    ["--scale", "paper", "--target-stderr", "0"],
)

# Pinned simulated results (the correctness gate). Side-lab lines of the
# sampling report are deliberately not pinned.
SAMPLING_PINS = {
    "Base / naive": ("2.482", None),
    "Clustered / general bal.": ("3.364", "+35.5"),
}
GCC_STATIC_PIN = ("Static (Sastry et al.)", "32.4")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "cpu_ms_per_req": "ms",
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "prog.ff_s": "s",
    "prog.ff_insts_per_s": "1/s",
    "prog.ckpt_count": "count",
    "prog.interp_insts_per_s": "1/s",
    "uarch.snapshot_decode_s": "s",
    "uarch.snapshot_bytes": "bytes",
    "sim.resume_s": "s",
    "sim.restore_s": "s",
    "sim.warm_functional_s": "s",
    "sim.run_s": "s",
    "sim.detailed_insts": "count",
    "sim.insts_per_s": "1/s",
    "steer.instantiate_s": "s",
    "steer.instantiate_calls": "count",
    "steer.instantiate_ms_max": "ms",
    "store.ckpt_save_s": "s",
    "store.ckpt_bytes": "bytes",
    "store.intervals_save_s": "s",
    "store.ckpt_load_s": "s",
    "store.intervals_load_s": "s",
    "store.records_loaded": "count",
    "store.errors": "count",
    "bench.lab_utilisation": "1",
    "bench.intervals_computed": "count",
    "bench.intervals_from_store": "count",
    "bench.intervals_merged": "count",
    "bench.useful_ratio": "1",
    "bench.render_ms": "ms",
    "bench.coverage": "1",
    "serve.ping_keepalive_ms": "ms",
    "serve.ping_fresh_ms": "ms",
    "serve.job_ms": "ms",
    "serve.http_requests_per_req": "count",
    "serve.dedup_hits": "count",
    "serve.cold_jobs": "count",
    "trace.overhead": "1",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    """Builds `dca` and the replay in release mode; returns their paths.
    Both are built on every run, so the first run of a checkout pays for
    both builds and a traced run never does."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml at the checkout root: nothing to build")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dca-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "replay", "Cargo.toml")],
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "dca"), os.path.join(target, "release", "dca-replay")


# ---------------------------------------------------------- measurement


def steal_s():
    """Host steal time so far, seconds (diagnostic only)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / TICK if len(fields) > 8 else 0.0


def proc_cpu_s(pid):
    """User+system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as f:
        rest = f.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / TICK


def proc_hwm_mib(pid):
    """Peak RSS of a live process (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def run_process(cmd, cwd):
    """Runs a child to completion; returns (exit code, wall s, CPU s,
    peak RSS MiB).

    The peak is the child's own `VmHWM`, sampled every 10 ms while it
    runs. rusage `ru_maxrss` would not do: `exec` carries the parent's
    peak RSS into it, so it reads the harness whenever the harness is
    larger."""
    done = threading.Event()
    peak = [0.0]

    def watch(pid):
        while not done.wait(0.01):
            peak[0] = max(peak[0], proc_hwm_mib(pid))

    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, open(
        os.path.join(cwd, "stderr.txt"), "wb"
    ) as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        watcher = threading.Thread(target=watch, args=(p.pid,))
        watcher.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        done.set()
        watcher.join()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, peak[0]


def read_prom(path):
    """`name value` samples of a Prometheus text file."""
    vals = {}
    try:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and not line.startswith("#"):
                    vals[parts[0]] = float(parts[1])
    except OSError:
        pass
    return vals


# ------------------------------------------------------------ the gate


def table_rows(text):
    """Markdown table rows as lists of stripped cells."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("|") and line.endswith("|"):
            rows.append([c.strip() for c in line.strip("|").split("|")])
    return rows


def sampling_ok(text):
    rows = {r[0]: r for r in table_rows(text) if r}
    for label, (ipc, speedup) in SAMPLING_PINS.items():
        row = rows.get(label)
        if row is None or len(row) < 5 or row[1] != ipc:
            return False
        if speedup is not None and row[4] != speedup:
            return False
    return True


def gcc_ok(text):
    label, value = GCC_STATIC_PIN
    for line in text.splitlines():
        if line.startswith(label):
            return line[len(label):].split() == [value]
    return False


# Cold workloads: the `dca` command line, the replay mode that re-runs
# the same work layer by layer under tracing, and the report check.
COLD = {
    "sampling_cold": (["figures", "sampling", "--scale", "paper"], "sampling", sampling_ok),
    "gcc_static_cold": (
        ["compare", "--bench", "gcc", "--schemes", "static", "--scale", "paper"],
        "gcc",
        gcc_ok,
    ),
}


# ------------------------------------------------------- cold workloads


def cold_setup(dca, workload, wd, reps=3):
    """Prepares a cold run: an empty store, plus a warm-up of the same
    command at `--scale smoke` on its own empty store, so the binary is
    paged in and known to run before anything is timed. Repeated;
    returns the median seconds."""
    argv = ["smoke" if a == "paper" else a for a in COLD[workload][0]]
    times = []
    for i in range(reps):
        d = os.path.join(wd, f"setup{i}")
        t0 = time.perf_counter()
        os.makedirs(d)
        r = subprocess.run([dca] + argv + ["--store-dir", os.path.join(d, "store"), "-q"],
                           cwd=d, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            raise BenchError(f"{workload}: smoke-scale warm-up failed")
    return statistics.median(times)


def cold_rep(dca, workload, wd, i):
    """One cold `dca` process against an empty store."""
    argv, _, check = COLD[workload]
    d = os.path.join(wd, f"rep{i}")
    os.makedirs(d)
    metrics = os.path.join(d, "metrics.prom")
    cmd = [dca] + argv + ["--store-dir", os.path.join(d, "store"), "--metrics-out", metrics, "-q"]
    s0 = steal_s()
    code, wall, cpu, peak = run_process(cmd, d)
    steal = steal_s() - s0
    with open(os.path.join(d, "stdout.txt"), encoding="utf-8", errors="replace") as f:
        report = f.read()
    prom = read_prom(metrics)
    ok = code == 0 and check(report)
    if not ok:
        why = f"exit {code}" if code else "report differs from the pinned values"
        log(f"[perfbench] {workload} rep {i}: FAILED ({why})")
    return {
        "ok": ok,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "steal_s": steal,
        "workers": prom.get("dca_lab_workers", 0),
        "counts": {
            "ff_insts": int(prom.get("dca_ff_insts_total", -1)),
            "intervals_computed": int(prom.get("dca_intervals_computed_total", -1)),
            "intervals_from_store": int(prom.get("dca_intervals_from_store_total", -1)),
        },
    }


def run_cold(dca, workload, wd, seconds):
    setup = cold_setup(dca, workload, wd)
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(cold_rep(dca, workload, wd, len(reps)))
        elapsed = time.perf_counter() - t0
        # A run measures at least --seconds, and never risks the
        # per-run time limit for one more repetition.
        if elapsed >= seconds or elapsed + reps[-1]["wall_s"] > 150:
            break
    med = lambda k: statistics.median(r[k] for r in reps)
    wall, cpu = med("wall_s"), med("cpu_s")
    lat_ms = [r["wall_s"] * 1e3 for r in reps]
    metrics = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": setup,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": percentile(lat_ms, 90),
        "throughput_rps": len(reps) / sum(r["wall_s"] for r in reps),
        "cpu_ms_per_req": cpu * 1e3,
    }
    failed = sum(not r["ok"] for r in reps)
    diag = {"reps": len(reps), "rep_steal_s": [round(r["steal_s"], 3) for r in reps],
            "rep_wall_s": [round(r["wall_s"], 3) for r in reps]}
    return metrics, len(reps), failed, diag


# --------------------------------------------------------- HTTP client


class Client:
    """One keep-alive HTTP/1.1 connection, as client libraries hold it.
    Counts requests; a server that closes the connection is an error,
    never a silent reconnect."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.requests = 0

    def close(self):
        self.conn.close()

    def call(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        self.requests += 1
        resp = self.conn.getresponse()
        payload = resp.read()
        if resp.will_close:
            raise ConnectionError(f"{method} {path}: server closed the keep-alive connection")
        return resp.status, payload


def stream_until_done(port, job):
    """Waits for a job on its `?stream=1` progress stream (no timers);
    returns the final ndjson line."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
    try:
        conn.request("GET", f"/v1/jobs/{job}?stream=1")
        lines = conn.getresponse().read().splitlines()
    finally:
        conn.close()
    if not lines:
        raise BenchError(f"job {job}: empty progress stream")
    return json.loads(lines[-1])


def figure_request(conn, args):
    """One served request: submit, re-poll the status (no sleep) until
    done, fetch the report. Returns a record of what happened."""
    t0 = time.perf_counter()
    body = json.dumps({"figure": "sampling", "args": args}).encode()
    rec = {"ok": False, "doc": None, "status": None, "dedup": None}
    st, payload = conn.call("POST", "/v1/figures", body)
    if st != 202:
        rec["why"] = f"submit answered {st}"
        return rec
    sub = json.loads(payload)
    rec["dedup"] = sub.get("dedup")
    job = sub["job"]
    while True:
        st, payload = conn.call("GET", f"/v1/jobs/{job}")
        if st != 200:
            rec["why"] = f"status answered {st}"
            return rec
        status = json.loads(payload)
        if status.get("state") == "done":
            break
    st, doc = conn.call("GET", f"/v1/jobs/{job}/result")
    rec["latency_ms"] = (time.perf_counter() - t0) * 1e3
    rec["status"] = status
    if st != 200:
        rec["why"] = f"result answered {st}"
        return rec
    rec["doc"] = doc
    rec["ok"] = True
    return rec


# --------------------------------------------------------- served_warm


class Daemon:
    """A `dca serve` daemon on an ephemeral HTTP port."""

    def __init__(self, dca, wd):
        self.t0 = time.perf_counter()
        self.store = os.path.join(wd, "store")
        self.log = os.path.join(wd, "serve.log")
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                [dca, "serve", "--listen", os.path.join(wd, "dca.sock"),
                 "--http-addr", "127.0.0.1:0", "--jobs", "2", "--store-dir", self.store],
                cwd=wd, stdout=subprocess.DEVNULL, stderr=err)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            with open(self.log, encoding="utf-8", errors="replace") as f:
                for line in f:
                    if line.startswith("serve: http on "):
                        self.port = int(line.rsplit(":", 1)[1])
            if self.port is None:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.kill()
                    raise BenchError("dca serve did not bind its HTTP port")
                time.sleep(0.002)

    def shutdown(self):
        """Asks the daemon to exit; True on a clean exit 0."""
        try:
            conn = Client(self.port)
            st, _ = conn.call("POST", "/v1/shutdown")
            conn.close()
            code = self.proc.wait(timeout=60)
            return st == 200 and code == 0
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            self.kill()
            return False

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def served_setup(dca, wd):
    """Daemon start plus the first, cold request (populates the store)."""
    t0 = time.perf_counter()
    daemon = Daemon(dca, wd)
    try:
        conn = Client(daemon.port)
        st, payload = conn.call(
            "POST", "/v1/figures",
            json.dumps({"figure": "sampling", "args": CLIENT_ARGS[0]}).encode())
        if st != 202:
            raise BenchError(f"cold submit answered {st}")
        job = json.loads(payload)["job"]
        stream_until_done(daemon.port, job)
        st, doc = conn.call("GET", f"/v1/jobs/{job}/result")
        conn.close()
    except (OSError, ValueError, http.client.HTTPException, BenchError):
        daemon.kill()
        raise
    setup = time.perf_counter() - t0
    if st != 200 or not sampling_ok(doc.decode("utf-8", "replace")):
        daemon.kill()
        raise BenchError("the cold served report is wrong")
    return daemon, doc, setup


def closed_loop(daemon, seconds, order):
    """Two clients, one keep-alive connection and one key each, until
    `seconds` have passed. Returns (records, phase seconds, daemon CPU)."""
    records = [[] for _ in CLIENT_ARGS]
    errors = []

    def client(i):
        try:
            conn = Client(daemon.port)
            while time.perf_counter() < deadline:
                before = conn.requests
                rec = figure_request(conn, CLIENT_ARGS[i])
                rec["http_requests"] = conn.requests - before
                records[i].append(rec)
            conn.close()
        except (OSError, ValueError, http.client.HTTPException) as e:
            errors.append(f"client {i}: {e}")
            records[i].append({"ok": False, "why": str(e), "http_requests": 0})

    cpu0 = proc_cpu_s(daemon.proc.pid)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    threads = [threading.Thread(target=client, args=(i,)) for i in order]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase = time.perf_counter() - t0
    cpu = proc_cpu_s(daemon.proc.pid) - cpu0
    for e in errors:
        log(f"[perfbench] served_warm: {e}")
    return records, phase, cpu


def judge(records, reference):
    """Applies the served correctness gate; returns the failure count.
    `reference[i]` is key i's first correct report (filled here)."""
    failed = 0
    for i, recs in enumerate(records):
        for rec in recs:
            why = rec.get("why")
            if rec["ok"]:
                st = rec["status"] or {}
                doc = rec["doc"]
                if reference[i] is None and sampling_ok(doc.decode("utf-8", "replace")):
                    reference[i] = doc
                if doc != reference[i]:
                    why = "report differs from the key's first response"
                elif st.get("ff_insts") != 0 or st.get("intervals_computed") != 0:
                    why = "warm request simulated"
                elif rec["dedup"] or st.get("dedup"):
                    why = "request coalesced (dedup)"
            if why is not None:
                rec["ok"] = False
                failed += 1
                log(f"[perfbench] served_warm client {i}: FAILED ({why})")
    return failed


def run_served(dca, wd, seconds, seed):
    daemon, cold_doc, setup = served_setup(dca, wd)
    order = [0, 1]
    random.Random(seed).shuffle(order)
    try:
        records, phase, cpu = closed_loop(daemon, seconds, order)
        hwm = proc_hwm_mib(daemon.proc.pid)
    except BaseException:
        daemon.kill()
        raise
    clean = daemon.shutdown()
    life_wall = time.perf_counter() - daemon.t0
    failed = judge(records, [cold_doc, None]) + (0 if clean else 1)
    if not clean:
        log("[perfbench] served_warm: daemon did not shut down cleanly")
    done = [r for recs in records for r in recs if r["ok"]]
    n = sum(len(recs) for recs in records)
    lat = [r["latency_ms"] for r in done] or [0.0]
    metrics = {
        "wall_s": life_wall,
        "cpu_s": cpu,
        "peak_rss_mb": hwm,
        "setup_s": setup,
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": percentile(lat, 90),
        "throughput_rps": len(done) / phase,
        "cpu_ms_per_req": cpu * 1e3 / max(len(done), 1),
    }
    diag = {"requests": n, "per_client": [len(r) for r in records]}
    # setup request + measured requests + clean shutdown
    return metrics, n + 2, failed, diag


# ------------------------------------------------------------- tracing


def replay(replay_bin, mode, store, trace_out):
    r = subprocess.run([replay_bin, mode, "--store-dir", store, "--trace-out", trace_out],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"replay {mode} failed")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def layer_metrics(rp):
    """Per-layer metrics derived from one replay's output."""
    lay = rp["layers"]
    c = rp["counts"]
    tot = lambda n: lay.get(n, {}).get("total_ns", 0) / 1e9
    rate = lambda num, s: num / s if s > 0 else 0.0
    m = {
        "workloads.build_s": tot("workloads.build"),
        "prog.ff_s": tot("prog.fast_forward"),
        "prog.ff_insts_per_s": rate(c["ff_insts"], tot("prog.fast_forward")),
        "prog.ckpt_count": c["ckpts"],
        "prog.interp_insts_per_s": rate(c["interp_insts"], tot("probe.interp")),
        "uarch.snapshot_decode_s": tot("uarch.snapshot_decode"),
        "uarch.snapshot_bytes": c["snapshot_bytes"],
        "sim.resume_s": tot("sim.resume"),
        "sim.restore_s": tot("sim.restore"),
        "sim.warm_functional_s": tot("sim.warm_functional"),
        "sim.run_s": tot("sim.run"),
        "sim.detailed_insts": c["detailed_insts"],
        "sim.insts_per_s": rate(c["detailed_insts"], tot("sim.run")),
        "steer.instantiate_s": tot("steer.instantiate"),
        "steer.instantiate_calls": lay.get("steer.instantiate", {}).get("count", 0),
        "steer.instantiate_ms_max": lay.get("steer.instantiate", {}).get("max_ns", 0) / 1e6,
        "store.ckpt_save_s": tot("store.ckpt_save"),
        "store.ckpt_bytes": c["ckpt_bytes"],
        "store.intervals_save_s": tot("store.intervals_save"),
        "store.ckpt_load_s": tot("store.ckpt_load"),
        "store.intervals_load_s": tot("store.intervals_load"),
        "store.records_loaded": c["records_loaded"],
        "store.errors": c["store_errors"],
        "bench.intervals_computed": c["intervals_computed"],
        "bench.intervals_from_store": c["intervals_from_store"],
        "bench.intervals_merged": c["intervals_merged"],
        "bench.useful_ratio": rate(c["intervals_merged"], c["intervals_computed"]),
        "bench.render_ms": rp["report"]["render_ns"] / 1e6,
    }
    return m


def trace_cold(dca, replay_bin, workload, wd, trace_out, pairs=2):
    """An untraced run and a traced replay, `pairs` times, in
    alternating order (ABBA), so a host-speed drift during the run
    cancels out of the pairs' ratios. Returns per-layer medians."""
    ok = True
    per_pair = []
    for i in range(pairs):
        run_replay = lambda: replay(replay_bin, COLD[workload][1],
                                    os.path.join(wd, f"replay{i}"), trace_out)
        if i % 2:
            rp = run_replay()
            untraced = cold_rep(dca, workload, wd, i)
        else:
            untraced = cold_rep(dca, workload, wd, i)
            rp = run_replay()
        ok = ok and untraced["ok"] and COLD[workload][2](rp["report"]["document"])
        # Fidelity: the replay did the work the untraced run did.
        for k, v in untraced["counts"].items():
            if rp["counts"][k] != v:
                log(f"[perfbench] replay fidelity: {k} replay {rp['counts'][k]} != untraced {v}")
                ok = False
        m = layer_metrics(rp)
        covered = rp["covered_ns"] / 1e9
        m["bench.lab_utilisation"] = untraced["cpu_s"] / (untraced["wall_s"] * max(untraced["workers"], 1))
        m["bench.coverage"] = covered / untraced["cpu_s"]
        m["trace.overhead"] = rp["work_wall_ns"] / 1e9 / untraced["wall_s"] - 1
        log(f"[perfbench] pair {i}: untraced wall {untraced['wall_s']:.3f}s cpu {untraced['cpu_s']:.3f}s "
            f"counts {untraced['counts']}; replay covered {covered:.3f}s")
        per_pair.append(m)
    m = {k: statistics.median(p[k] for p in per_pair) for k in per_pair[0]}
    if m["bench.coverage"] < 0.9:
        log(f"[perfbench] coverage {m['bench.coverage']:.3f} < 0.9")
        ok = False
    return m, ok


def ping_ms(port, n, keepalive):
    times = []
    conn = Client(port) if keepalive else None
    for _ in range(n):
        t0 = time.perf_counter()
        c = conn if keepalive else Client(port)
        st, _ = c.call("GET", "/v1/ping")
        times.append((time.perf_counter() - t0) * 1e3)
        if not keepalive:
            c.close()
        if st != 200:
            raise BenchError(f"ping answered {st}")
    if conn:
        conn.close()
    return statistics.median(times)


def trace_served(dca, replay_bin, wd, seconds, trace_out):
    daemon, cold_doc, _ = served_setup(dca, wd)
    try:
        records, _, _ = closed_loop(daemon, min(seconds, 5), [0, 1])
        conn = Client(daemon.port)
        stats = json.loads(conn.call("GET", "/v1/stats")[1])
        conn.close()
        keep = ping_ms(daemon.port, 30, True)
        fresh = ping_ms(daemon.port, 30, False)
    except BaseException:
        daemon.kill()
        raise
    clean = daemon.shutdown()
    ok = judge(records, [cold_doc, None]) == 0 and clean
    done = [r for recs in records for r in recs if r["ok"]]
    rp = replay(replay_bin, "served", daemon.store, trace_out)
    ok = ok and sampling_ok(rp["report"]["document"]) and rp["counts"]["store_errors"] == 0
    served_from_store = statistics.median(r["status"]["intervals_from_store"] for r in done) if done else -1
    if rp["counts"]["intervals_from_store"] != served_from_store:
        log(f"[perfbench] replay fidelity: intervals_from_store replay "
            f"{rp['counts']['intervals_from_store']} != served {served_from_store}")
        ok = False
    m = layer_metrics(rp)
    m.update({
        "serve.ping_keepalive_ms": keep,
        "serve.ping_fresh_ms": fresh,
        "serve.job_ms": statistics.median(r["status"]["elapsed_ms"] for r in done) if done else 0.0,
        "serve.http_requests_per_req": statistics.mean(
            r["http_requests"] for recs in records for r in recs) if records else 0.0,
        "serve.dedup_hits": stats.get("dedup_hits", -1),
        "serve.cold_jobs": sum(1 for r in done if r["status"]["intervals_computed"] or r["status"]["ff_insts"]),
    })
    return m, ok


# ----------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        dca, replay_bin = build()
    except BenchError as e:
        log(f"[perfbench] {e}")
        return 1
    wd = os.path.join(WORK, f"{a.workload}-{os.getpid()}")
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    os.makedirs(OUT, exist_ok=True)
    s0 = steal_s()
    try:
        if a.trace:
            trace_out = os.path.join(OUT, f"trace_{a.workload}.json")
            if a.workload in COLD:
                m, ok = trace_cold(dca, replay_bin, a.workload, wd, trace_out)
            else:
                m, ok = trace_served(dca, replay_bin, wd, a.seconds, trace_out)
            # A layer the workload never enters reads 0.
            metrics = {k: m.get(k, 0.0) for k in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
            attempted, failed, diag = 1, 0 if ok else 1, {"trace": os.path.relpath(trace_out, ROOT)}
        else:
            if a.workload in COLD:
                metrics, attempted, failed, diag = run_cold(dca, a.workload, wd, a.seconds)
            else:
                metrics, attempted, failed, diag = run_served(dca, wd, a.seconds, a.seed)
            units = END_TO_END_UNITS
    except BenchError as e:
        log(f"[perfbench] {e}")
        return 1
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    # Host steal is a diagnostic next to the metrics; it never drops or
    # rescales a run.
    diag["host_steal_s"] = round(steal_s() - s0, 3)
    failed_ratio = failed / attempted
    for k in units:
        print(f"{a.workload:16} {k:28} {metrics[k]:>16.6f} {units[k]}")
    print(f"{a.workload:16} {'failed_ratio':28} {failed_ratio:>16.6f} 1")
    print(f"{a.workload:16} diag {json.dumps(diag)}")
    with open(os.path.join(OUT, "history.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                            "trace": a.trace, "attempted": attempted, "failed": failed,
                            "metrics": metrics, "diag": diag}) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
