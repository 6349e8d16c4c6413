#!/usr/bin/env python3
"""Wall-clock benchmark of the real brickd deployment.

    python3 perfbench/run.py --workload mixed_uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds perfbench/ (the repository's libraries, brickd and the fabbench load
generator) as a Release package in .bench_build/, generates the workload's
ops from the seed, and runs fabbench: 8 brickd processes (RS n=8, m=5, 4 KiB
blocks) driven by closed-loop client threads through fab::VolumeClient.

--trace 0 prints the end-to-end metrics. --trace 1 records per-op spans in
every other half-second slot of the timed phase (the slots between are the
untraced reference for the tracing overhead), replays every layer's public
functions with the workload's geometry (fabbench replay), and prints the
per-layer metrics, a Table 1-shaped ledger with the residue against the
p50s, and the tracing overhead. The last stdout line of a run is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Without the
repository's sources, or if fabbench fails, it exits non-zero without one.
"""
import argparse
import json
import os
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")

HOT_STRIPES = 26        # whole stripes: 26 x m = 130 hot blocks
OPS_PER_THREAD = 50000  # streams wrap around if a thread outruns them
SETUPS = 3              # set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170
CALM_STEAL = 0.01       # host steal share below which a window counts as calm


def nproc():
    return len(os.sched_getaffinity(0))


def workloads():
    half = max(1, nproc() // 2)
    # threads <= nproc counting each VolumeClient's EpollLoop thread.
    return {
        "mixed_uniform": dict(clients=half, threads=half, write=0.5),
        "hot_read_shared": dict(clients=1, threads=max(1, nproc() - 1),
                                write=0.1, hot=HOT_STRIPES, cache=1),
        "degraded_read": dict(clients=half, threads=half, write=0.1,
                              kill=True),
    }


# --- build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources not found next to perfbench/")
    log = os.path.join(ROOT, ".bench_build.log")
    with open(log, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(nproc()),
                        "--target", "fabbench", "brickd"],
                       stdout=out, stderr=out, check=True)
    return os.path.join(BUILD, "fabbench"), os.path.join(BUILD, "brickd")


def geometry(fabbench):
    """n, m, block_size and the default volume_blocks, from fabbench."""
    out = subprocess.run([fabbench, "geometry"], stdout=subprocess.PIPE,
                         check=True, timeout=30)
    return json.loads(out.stdout)


# --- inputs ------------------------------------------------------------------

def write_ops(path, spec, seed, volume, m):
    """One stream per load thread plus a warm-up stream, all from `seed`."""
    rng = random.Random(seed)
    # The hot set is made of whole stripes, so ops on different hot blocks
    # contend for the same stripe. fabbench's layout is rotating: block j of
    # stripe s is lba j * S + s, with S = volume / m stripes.
    stripes = volume // m
    hot = [j * stripes + s
           for s in sorted(rng.sample(range(stripes), spec.get("hot", 0)))
           for j in range(m)]
    chunks = [struct.pack("<I", spec["threads"] + 1)]
    for _ in range(spec["threads"]):
        ops = []
        for _ in range(OPS_PER_THREAD):
            if hot and rng.random() < 0.9:
                lba = rng.choice(hot)
            else:
                lba = rng.randrange(volume)
            ops.append(lba | (1 << 31 if rng.random() < spec["write"] else 0))
        chunks += [struct.pack("<I", len(ops)), struct.pack("<%dI" % len(ops), *ops)]
    stride = volume // 256
    warm = sorted(set(range(rng.randrange(stride), volume, stride)) | set(hot))
    chunks += [struct.pack("<I", len(warm)), struct.pack("<%dI" % len(warm), *warm)]
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


# --- running fabbench ----------------------------------------------------------

def run_child(argv):
    """Runs argv in its own process group and kills whatever is left of the
    group afterwards (fabbench reaps its bricks, but not if it crashes)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        sys.exit("perfbench: %s exited with %s" % (argv[1], proc.returncode))
    return json.loads(out.decode().strip().splitlines()[-1])


def run_load(binaries, geo, name, spec, seed, seconds, trace, tag, volume,
             setups, plant_fault=False):
    fabbench, brickd = binaries
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "%s-%s-%d-%d" % (tag, name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = os.path.join(work, "ops.bin")
    write_ops(ops, spec, seed, volume, geo["m"])
    argv = [fabbench, "run", "--brickd", brickd, "--dir", work, "--ops", ops,
            "--seconds", str(seconds), "--setups", str(setups),
            "--clients", str(spec["clients"]), "--volume-blocks", str(volume),
            "--read-cache", str(spec.get("cache", 0)),
            # Placement is the identity (brick b holds block b of every
            # stripe), so the victim is a data brick: a dead parity brick
            # would leave every read on the fast path.
            "--kill-brick", str(seed % geo["m"] if spec.get("kill") else -1),
            "--seed", str(seed), "--trace", "1" if trace else "0",
            "--plant-fault", "1" if plant_fault else "0"]
    spans = None
    if trace:
        spans = os.path.join(OUT, "spans-%s-%d.csv" % (name, seed))
        argv += ["--spans", spans]
    try:
        result = run_child(argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["build_type"] != "release":
        # Same rule as tools/bench2json: numbers from a debug build are not
        # recorded.
        sys.exit("perfbench: fabbench reports build type '%s', not 'release'"
                 % result["build_type"])
    result["spans_file"] = spans
    return result


def run_replay(binaries, name, seed):
    fabbench = binaries[0]
    work = os.path.join(OUT, "replay-%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(OUT, "replay-spans-%s-%d.csv" % (name, seed))
    try:
        return run_child([fabbench, "replay", "--dir", work, "--spans", spans,
                          "--seed", str(seed)])
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- metrics -----------------------------------------------------------------

def ops_of(r):
    return r["reads_ok"] + r["writes_ok"]


def failures_of(r):
    """Failed ops, oracle violations, damaged stores, bricks that crashed and
    set-up failures (preload stripes, warm-up read-backs, bricks that crashed
    during set-up) all count; none is ever dropped."""
    return (r["reads_failed"] + r["writes_failed"] + len(r["violations"]) +
            len(r["damaged"]) + len(r["unclean_bricks"]) + r["setup_failures"])


def calm(parts):
    """A run's windows or chunks in which the host stole at most 1% of the
    CPU time, or, if they are fewer than a third of them, the third in which
    it stole the least (with every part tied with the last of these).

    Eight bricks and the generator share the host's CPUs, so a few ms of
    steal stalls a quorum member: windows with a few percent steal ran at
    half the throughput and several times the p99 of the calm ones, in
    bursts that came and went within a run. Steal is the hypervisor running
    other guests, so ranking the parts by it keeps what the code does and
    drops what the host did. Every op is still counted and checked."""
    cut = max(CALM_STEAL,
              sorted(p["steal"] for p in parts)[max(1, len(parts) // 3) - 1])
    return [p for p in parts if p["steal"] <= cut]


def end_to_end(r):
    """Throughput is the median over the timed phase's calm 1 s windows,
    latency percentiles the median over its calm chunks of consecutive
    completions (one chunk per window, at least 1000 ops each); the rest
    are whole-phase totals."""
    ops = ops_of(r)
    bricks, gen = r["bricks"], r["generator"]

    def median_of(kind, key):
        return statistics.median(c[key] for c in calm(r[kind + "_chunks"]))

    return {
        "throughput_ops_s": (statistics.median(w["ops_s"] for w in calm(r["windows"])),
                             "1/s"),
        "read_p50_us": (median_of("read", "p50_us"), "us"),
        "read_p99_us": (median_of("read", "p99_us"), "us"),
        "write_p50_us": (median_of("write", "p50_us"), "us"),
        "write_p99_us": (median_of("write", "p99_us"), "us"),
        "cpu_us_per_op": ((bricks["cpu_us"] + gen["cpu_us"]) / ops, "us"),
        "write_amp": (bricks["wchar"] / max(1, r["writes_ok"] * r["block_size"]),
                      "ratio"),
        "rss_mib": ((bricks["hwm_kib"] + gen["hwm_kib"]) / 1024.0, "MiB"),
        "setup_s": (statistics.median(r["setup_s"]), "s"),
    }


def per_op(x, ops):
    return x / ops if ops else 0.0


def per_layer(r, rp):
    """Live counters from the traced run plus the layer replay's timings."""
    ops = ops_of(r)
    # Mux and client counters cover the warm-up (reads only) and the timed
    # phase.
    live_ops = ops + r["warmup_ops"]
    c, mux, cl, b = r["coordinator"], r["mux"], r["client"], r["bricks"]
    reads = max(1, c["block_reads"])
    writes = max(1, c["block_writes"])
    msgs = mux["messages_sent"] + mux["messages_received"]
    dgrams = mux["datagrams_sent"] + mux["datagrams_received"]
    t = rp["timings"]
    m = {
        "volume_client.retries_per_op": (per_op(cl["retries"], live_ops), "count"),
        "volume_client.timeouts_per_op": (per_op(cl["timed_out"], live_ops), "count"),
        "generator.cpu_us_per_op": (per_op(r["generator"]["cpu_us"], ops), "us"),
        "coordinator.fast_read_ratio": (c["fast_read_hits"] / reads, "ratio"),
        "coordinator.slow_write_ratio": (c["slow_block_writes"] / writes, "ratio"),
        # Coordinator counters are deltas over the timed phase.
        "coordinator.recoveries_per_op": (per_op(c["recoveries_started"], ops), "count"),
        "coordinator.retransmit_rounds_per_op": (per_op(c["retransmit_rounds"], ops), "count"),
        "coordinator.sends_suppressed_per_op": (per_op(c["sends_suppressed"], ops), "count"),
        "coordinator.cache_hit_ratio": (c["cached_read_hits"] / reads, "ratio"),
        "coordinator.cache_fallbacks_per_read": (c["cached_read_fallbacks"] / reads, "count"),
        "coordinator.degraded_reads_per_read": (c["degraded_reads"] / reads, "count"),
        "coordinator.cpu_us_per_read": (t["coordinator.read"], "us"),
        "coordinator.cpu_us_per_write": (t["coordinator.write"], "us"),
        "datagram_mux.msgs_per_op": (per_op(msgs, live_ops), "count"),
        "datagram_mux.datagrams_per_op": (per_op(dgrams, live_ops), "count"),
        "datagram_mux.msgs_per_datagram": (msgs / max(1, dgrams), "ratio"),
        "datagram_mux.send_failures_per_op": (per_op(mux["send_failures"], live_ops), "count"),
        "datagram_mux.roundtrip_us": (t["mux.roundtrip"], "us"),
        "frame.encode_us": (t["frame.encode"], "us"),
        "frame.decode_us": (t["frame.decode"], "us"),
        "persistence.append_us": (t["persistence.append"], "us"),
        "persistence.append_fsync_us": (t["persistence.append_fsync"], "us"),
        "persistence.compact_ms": (t["persistence.compact"] / 1e3, "ms"),
        # /proc deltas over the timed phase, live bricks only.
        "brickd.cpu_us_per_op": (per_op(b["cpu_us"], ops), "us"),
        "brickd.ctx_switches_per_op": (per_op(b["ctx_switches"], ops), "count"),
        "brickd.write_syscalls_per_op": (per_op(b["syscw"], ops), "count"),
        "brickd.journal_bytes_per_op": (per_op(b["wchar"], ops), "B"),
        # Farewell lines: the bricks were restarted after the preload, so
        # these cover the warm-up and the timed phase.
        "brickd.requests_per_op": (per_op(b["requests"], live_ops), "count"),
        "brickd.journal_appends_per_op": (per_op(b["journal_appends"], live_ops), "count"),
        "brickd.duplicate_replies_per_op": (per_op(b["duplicate_replies"], live_ops), "count"),
        "brickd.compactions": (b["compactions"], "count"),
        "erasure.encode_us": (t["erasure.encode"], "us"),
        "erasure.decode_us": (t["erasure.decode"], "us"),
        "erasure.modify_us": (t["erasure.modify"], "us"),
        "gf.mul_add_us": (t["gf.mul_add"], "us"),
    }
    for kind in WIRE_KINDS:
        m["wire.encode_us." + kind] = (t["wire.encode." + kind], "us")
        m["wire.decode_us." + kind] = (t["wire.decode." + kind], "us")
    for kind in REPLICA_KINDS:
        m["replica.handle_us." + kind] = (t["replica." + kind], "us")
    return m


WIRE_KINDS = ["read_req", "read_rep", "order_req", "order_rep",
              "order_read_req", "order_read_rep", "modify_delta_req",
              "modify_rep", "write_req", "write_rep", "gc_req"]
REPLICA_KINDS = ["read", "order", "order_read", "modify_delta", "write", "gc"]


# --- the Table 1 ledger --------------------------------------------------------

def table1(spec, r):
    """Paper's per-op cost (Table 1, k = n - m parities) for this op mix:
    fast-path reads 1 round / 2n msgs / B, §13 cached reads 1 round / 2t
    msgs (t = m), §5.2 delta writes 2 rounds / 4n msgs / (k+2)B. Journal
    appends follow brickd's rule (every request but Read is journaled): 2n
    per write, plus n for the GC broadcast after it (GC traffic: n msgs, not
    in Table 1)."""
    n, m, block = r["n"], r["m"], r["block_size"]
    w = spec["write"]
    read_msgs = 2 * m if spec.get("cache", 0) else 2 * n
    return {
        "rounds": (1 - w) * 1 + w * 2,
        "msgs": (1 - w) * read_msgs + w * (4 * n + n),
        "bytes": ((1 - w) * 1 + w * (n - m + 2)) * block,
        "appends": w * (2 * n + n),
    }


def ledger(name, spec, r, rp):
    ops = ops_of(r)
    live_ops = ops + r["warmup_ops"]
    c, mux, b = r["coordinator"], r["mux"], r["bricks"]
    t = rp["timings"]
    w = r["writes_ok"] / max(1, ops)
    n = r["n"]
    measured = {
        # Request fan-outs: every round sends one request to each of n
        # bricks (GC broadcasts excluded).
        "rounds": (mux["messages_sent"] - c["gc_messages"]) / (n * max(1, live_ops)),
        "msgs": (mux["messages_sent"] + mux["messages_received"]) / max(1, live_ops),
        "bytes": r["lo_bytes"] / max(1, ops) if r.get("lo_bytes") else float("nan"),
        "appends": b["journal_appends"] / max(1, live_ops),
    }
    pred = table1(spec, r)
    print("== %s: Table 1 ledger (write share %.2f, %d ops) ==" % (name, w, ops))
    print("  %-12s %12s %12s" % ("per op", "measured", "Table 1"))
    for key in ("rounds", "msgs", "bytes", "appends"):
        print("  %-12s %12.2f %12.2f" % (key, measured[key], pred[key]))
    print("  (bytes measured = loopback tx bytes of the network namespace,"
          " headers included; Table 1 counts block payloads)")
    # Blocking path of one fast-path op, from the replay's per-call costs.
    wire_read = (n - 1) * (t["wire.encode.read_req"] + t["wire.decode.read_rep"])
    read_layers = {
        "coordinator": t["coordinator.read"],
        "datagram_mux (1 roundtrip)": t["mux.roundtrip"],
        "wire (other n-1 msgs)": wire_read,
        "replica": t["replica.read"],
    }
    wire_write = (n - 1) * (t["wire.encode.order_read_req"] + t["wire.decode.order_read_rep"] +
                            t["wire.encode.modify_delta_req"] + t["wire.decode.modify_rep"])
    write_layers = {
        "coordinator": t["coordinator.write"],
        "datagram_mux (2 roundtrips)": 2 * t["mux.roundtrip"],
        "wire (other n-1 msgs x2)": wire_write,
        "replica": t["replica.order_read"] + t["replica.modify_delta"],
        "persistence (2 appends)": 2 * t["persistence.append"],
        "erasure (delta)": t["erasure.modify"],
    }
    residue = {}
    for kind, layers, p50 in (("read", read_layers, r["read_p50_us"]),
                              ("write", write_layers, r["write_p50_us"])):
        total = sum(layers.values())
        residue[kind] = p50 - total
        print("  %s p50 %.1f us along the blocking path:" % (kind, p50))
        for layer, us in layers.items():
            print("    %-30s %9.2f us" % (layer, us))
        print("    %-30s %9.2f us" % ("residue", residue[kind]))
    # Untraced and traced slots alternate through the whole timed phase.
    u, tr = r["trace_slots"]
    overhead = (u["ops_s"] - tr["ops_s"]) / u["ops_s"] if u["ops_s"] else 0.0
    print("  tracing overhead: %d untraced slots %.0f ops/s p50 %.1f us, "
          "%d traced slots %.0f ops/s p50 %.1f us (traced %+.1f%% ops/s)"
          % (u["slots"], u["ops_s"], u["p50_us"], tr["slots"], tr["ops_s"],
             tr["p50_us"], -100 * overhead))
    print("  spans: %s (%d ops), %s" % (r["spans_file"], r["spans"], rp["spans_file"]))
    if r["threads"] > r["clients"]:
        print("  attempts left empty in the spans: threads share a client, "
              "whose retries (%.4f per op over the run) are client-wide"
              % per_op(r["client"]["retries"], live_ops))
    return {
        "ledger.read_residue_us": (residue["read"], "us"),
        "ledger.write_residue_us": (residue["write"], "us"),
        "ledger.rounds_per_op": (measured["rounds"], "count"),
        "ledger.journal_appends_per_op": (measured["appends"], "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def context_line(name, seed, r):
    """Host and build context: figures from different hosts or builds are
    never compared as a speed-up."""
    excluded = r["bricks"]["excluded"]
    print("perfbench %s seed %d: nproc %d, build %s (%s), gf kernel %s, "
          "code %s n=%d m=%d block %d B, volume %d blocks, %d clients / %d "
          "threads, brick counters from %d bricks%s, host steal %.1f%% of "
          "CPU time in the timed phase"
          % (name, seed, nproc(), r["build_type"], r["cmake_build_type"],
             r["gf_kernel"], r["code"], r["n"], r["m"], r["block_size"],
             r["volume_blocks"], r["clients"], r["threads"],
             r["bricks"]["live"],
             " (SIGKILLed brick %s excluded)" % excluded[0] if excluded else "",
             100 * r["host_steal_ratio"]))


def report_failures(name, seed, r):
    for v in r["violations"]:
        print("VIOLATION workload %s seed %d lba %d: %s"
              % (name, seed, v["lba"], v["detail"]))
    for b in r["unclean_bricks"]:
        print("BRICK DIED workload %s seed %d brick %d (log tail on stderr)"
              % (name, seed, b))
    for d in r["damaged"]:
        print("FSCK DAMAGED workload %s seed %d store %s" % (name, seed, d))
    if r["setup_failures"]:
        print("SETUP FAILURES workload %s seed %d: %d" % (name, seed, r["setup_failures"]))


def result_line(r, metrics):
    attempted = ops_of(r) + r["reads_failed"] + r["writes_failed"]
    failed = failures_of(r)
    print("  failed_op_ratio %.6f (failed ops, violations, damaged stores,"
          " crashed bricks, set-up failures: %d over %d attempted ops)"
          % (failed / attempted, failed, attempted))
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def bench(name, seed, seconds, trace, volume=None, setups=SETUPS,
          plant_fault=False):
    spec = workloads()[name]
    binaries = build()
    geo = geometry(binaries[0])
    volume = volume or geo["volume_blocks"]
    if not trace:
        r = run_load(binaries, geo, name, spec, seed, seconds, False, "run",
                     volume, setups, plant_fault)
        context_line(name, seed, r)
        report_failures(name, seed, r)
        metrics = end_to_end(r)
        windows = len(r["windows"])
        print("  samples: %d reads in %d chunks (%d calm), %d writes in %d "
              "chunks (%d calm), %d windows of %.2f s (%d calm)"
              % (r["reads_ok"], len(r["read_chunks"]), len(calm(r["read_chunks"])),
                 r["writes_ok"], len(r["write_chunks"]), len(calm(r["write_chunks"])),
                 windows, r["seconds"] / windows, len(calm(r["windows"]))))
        for k, (v, u) in metrics.items():
            print("  %-18s %14.3f %s" % (k, v, u))
        return r, metrics
    r = run_load(binaries, geo, name, spec, seed, seconds, True, "trace",
                 volume, 1, plant_fault)
    context_line(name, seed, r)
    report_failures(name, seed, r)
    rp = run_replay(binaries, name, seed)
    metrics = per_layer(r, rp)
    metrics.update(ledger(name, spec, r, rp))
    for k, (v, u) in sorted(metrics.items()):
        print("  %-40s %14.4f %s" % (k, v, u))
    return r, metrics


# --- self-check ----------------------------------------------------------------

def self_check():
    """Tiny runs of every workload, both modes: every declared metric must
    appear with its unit; then a planted journal fault must fail the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for w in declared["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            r, metrics = bench(w["name"], 7, 1.0, trace, volume=1000, setups=1)
            if failures_of(r):
                problems.append("%s trace=%d: %d failures" % (w["name"], trace, failures_of(r)))
            for m in declared[key]:
                got = metrics.get(m["name"])
                if got is None or got[1] != m["unit"]:
                    problems.append("%s trace=%d: metric %s missing or unit %r != %r"
                                    % (w["name"], trace, m["name"],
                                       got and got[1], m["unit"]))
            extra = set(metrics) - {m["name"] for m in declared[key]}
            if extra:
                problems.append("%s: undeclared metrics %s" % (w["name"], sorted(extra)))
    r, _ = bench("mixed_uniform", 7, 1.0, False, volume=1000, setups=1,
                 plant_fault=True)
    if not r["planted_fault"] or not r["damaged"] or failures_of(r) == 0:
        problems.append("planted journal fault was not reported as a failure")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    r, metrics = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(result_line(r, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
