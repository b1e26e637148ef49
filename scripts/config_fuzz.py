#!/usr/bin/env python3
"""Seeded config-domain fuzz of eqserved and eqsweep.

Every field of every model family gets hostile values: 0, -1, INT_MAX,
2**31, 2**63-1, wrong JSON types, unknown field names, oversized
`accels` lists and oversized sweep grids. Each goes to

  * one long-lived `eqserved --workers 1` as a `simulate` request and
    as a one-point `sweep` request, both under a deadline;
  * `eqsweep` as `--config` and as `--axis`.

Count flags (`--threads`, `--workers`, `--emit-shards`, the queue and
cache sizes, `--port`) get negative, non-numeric, zero and huge values;
each must be refused at parse time with exit 2.

Every answer must be a report or a structured error. No process may die
by a signal or `eq_fatal`: the daemon must still be serving after every
case, and eqsweep must exit 0 or 2, with a JSON `bad_request` line on
stderr when it exits 2. The evidence rows below (inputs that used to
crash or be silently accepted) must also be rejected with a message
that names the field.

Validation does not depend on the execution backend, so CI runs this
once.

Usage: config_fuzz.py [BUILD_DIR]   (default: build)
"""

import json
import os
import random
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_smoke import Daemon, Lines, fail  # noqa: E402

SEED = 20221002

# Each family's default config as the daemon dumps it (pinned byte for
# byte in tests/serve/test_config_fields.cc); the field catalog.
DEFAULTS = {
    "systolic": {"ah": 4, "aw": 4, "df": "WS", "c": 1, "h": 8, "w": 8,
                 "n": 1, "fh": 2, "fw": 2, "elem_bytes": 4},
    "soc": {"accels": [{"ah": 2, "aw": 2, "df": "WS", "link_bw": 8}] * 2,
            "bus_bw": 8, "bus_kind": "Streaming", "sram_banks": 4,
            "dmas": 1, "rounds": 2, "steps": 4, "elem_bytes": 4},
    "pipeline": {"stages": 4, "batches": 6, "tile_elems": 16,
                 "compute": 2, "dma_bw": 8, "hop_bw": 4, "elem_bytes": 4},
}
INTS = [0, -1, 2**31 - 1, 2**31, 2**63 - 1]
WRONG_TYPES = ["x", 1.5, [], {}, None, True]

# (model, config, axes, field the error must name). Axes are
# (name, values) pairs; None means a plain simulate.
EVIDENCE = [
    ("systolic", {"ah": 0}, None, "ah"),
    ("systolic", {"h": 0}, None, "h"),
    ("systolic", {"fh": 50}, None, "fh"),
    ("soc", {"dmas": 0}, None, "dmas"),
    ("soc", {"accels": []}, None, "accels"),
    ("soc", {"sram_banks": 0}, None, "sram_banks"),
    ("pipeline", {"stages": 0}, None, "stages"),
    ("pipeline", {"batches": 0}, None, "batches"),
    ("systolic", {"ah": -2}, None, "ah"),
    ("systolic", {"ah": 2**31}, None, "ah"),
    ("systolic", {"c": 0}, None, "c"),
    ("systolic", {"n": 0}, None, "n"),
    ("soc", {"rounds": 0}, None, "rounds"),
    ("soc", {"steps": -1}, None, "steps"),
    ("pipeline", {"compute": -1}, None, "compute"),
    ("pipeline", {"tile_elems": 0}, None, "tile_elems"),
    ("systolic", {}, [("ah", [4, 0])], "ah"),
    ("systolic", {}, [("hw", [8, 1])], "fh"),
    ("systolic", {}, [("f", [2, 20])], "fh"),
    ("soc", {}, [("dmas", [1, 0])], "dmas"),
    ("soc", {}, [("sram_banks", [1, 0])], "sram_banks"),
    # Each axis valid alone; hw=4 x f=6 breaks fh <= h.
    ("systolic", {}, [("hw", [4, 8]), ("f", [2, 6])], "fh"),
]

ANSWER_TYPES = {"report", "sweep_begin", "row", "sweep_end"}
ERROR_CODES = {"bad_request", "deadline_exceeded", "build_failed",
               "backpressure", "malformed_request"}


def cases(rng):
    """(model, config, axes) triples covering every field."""
    out = []
    for model, defaults in DEFAULTS.items():
        fields = [(k, v) for k, v in defaults.items() if k != "accels"]
        if model == "soc":
            fields += [("accels", None)]
        for name, default in fields:
            if name == "accels":
                for value in WRONG_TYPES + INTS + [[], [{}] * 65,
                                                   [{"ah": 2}] * 10000,
                                                   [1, 2], [{"zz": 1}]]:
                    out.append((model, {name: value}, None))
                for sub in DEFAULTS["soc"]["accels"][0]:
                    for value in INTS + WRONG_TYPES:
                        out.append((model, {name: [{sub: value}]}, None))
                continue
            for value in INTS + WRONG_TYPES + ["WS", "Window", "zz"]:
                out.append((model, {name: value}, None))
            for value in INTS:
                out.append((model, {}, [(name, [value])]))
        out.append((model, {"no_such_field": 1}, None))
        for value in [5, "x", [], True]:
            out.append((model, value, None))
        out.append((model, {}, [("no_such_axis", [1])]))
    # Oversized grids: by axis count and by a single huge axis.
    out.append(("systolic", {}, [("ah", list(range(1, 101))),
                                 ("aw", list(range(1, 101))),
                                 ("n", list(range(1, 101)))]))
    out.append(("systolic", {}, [("c", [1] * 200000)]))
    out.append(("soc", {}, [("tiles", [1, 2**31, 3])]))
    out.append(("systolic", {}, [("ah", [2]), ("ah", [4])]))
    out.append(("systolic", {}, [("ah", [])]))
    rng.shuffle(out)
    return out


def check_answer(resp, what):
    if resp.get("ok"):
        if resp.get("type") not in ANSWER_TYPES:
            fail(f"{what}: unexpected answer {resp}")
        return None
    err = resp.get("error") or {}
    if err.get("code") not in ERROR_CODES or not err.get("message"):
        fail(f"{what}: unstructured error {resp}")
    return err


def served(conn, daemon, model, config, axes, rid):
    """Send one simulate or sweep; return the error dict or None."""
    if axes is None:
        req = {"op": "simulate", "id": rid, "model": model,
               "config": config, "deadline_ms": 5000}
    else:
        req = {"op": "sweep", "id": rid, "model": model, "config": config,
               "axes": [{"name": n, "values": v} for n, v in axes],
               "deadline_ms": 5000}
    what = json.dumps(req)[:200]
    resp = conn.request(req)
    err = check_answer(resp, what)
    if resp.get("type") == "sweep_begin":
        # Point errors are still followed by sweep_end.
        while resp.get("type") != "sweep_end":
            resp = conn.next()
            err = check_answer(resp, what) or err
    if daemon.proc.poll() is not None:
        fail(f"{what}: eqserved died ({daemon.proc.returncode})")
    return err


def eqsweep(build_dir, model, config, axes):
    """Run eqsweep; return the structured error dict or None."""
    cmd = [os.path.join(build_dir, "src", "eqsweep"), "--model", model,
           "--threads", "1", "--config", json.dumps(config)]
    for name, values in axes or [("elem_bytes", [4])]:
        cmd += ["--axis", f"{name}=" + ",".join(str(v) for v in values)]
    what = " ".join(cmd[1:])[:200]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60)
    if proc.returncode == 0:
        return None
    if proc.returncode != 2:
        fail(f"{what}: exit {proc.returncode}: {proc.stderr.decode()}")
    for line in proc.stderr.decode().splitlines():
        if line.startswith("eqsweep: error: "):
            err = json.loads(line[len("eqsweep: error: "):])
            if err.get("code") in ("bad_request", "usage"):
                return err
    fail(f"{what}: exit 2 without a JSON error line: "
         f"{proc.stderr.decode()}")


# Count flags with values that must be refused at parse time, before
# any thread or socket exists: exit 2 and a message naming the flag.
BAD_COUNTS = ["-1", "abc", "0", "", " 4", "4x", "99999999999999999999"]
FLAG_CASES = [
    ("eqsweep", "--threads", BAD_COUNTS + ["257", "4294967295"]),
    ("eqsweep", "--emit-shards", BAD_COUNTS + ["65537", "1e3"]),
    ("eqserved", "--workers", BAD_COUNTS + ["257", "100000"]),
    ("eqserved", "--cache-entries", BAD_COUNTS + ["2147483648"]),
    ("eqserved", "--max-queue", BAD_COUNTS + ["2147483648"]),
    ("eqserved", "--max-queue-total", BAD_COUNTS + ["2147483648"]),
    ("eqserved", "--max-line", BAD_COUNTS + ["2147483648"]),
    ("eqserved", "--port", ["-1", "abc", "65536", ""]),
]


def flag_fuzz(build_dir):
    """Every rejected count flag exits 2 naming the flag; returns the
    number of cases."""
    n = 0
    for binary, flag, values in FLAG_CASES:
        for value in values:
            cmd = [os.path.join(build_dir, "src", binary), flag, value]
            if binary == "eqsweep":
                cmd += ["--model", "systolic", "--axis", "elem_bytes=4"]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=20)
            err = proc.stderr.decode()
            if proc.returncode != 2 or flag not in err:
                fail(f"{binary} {flag} {value!r}: exit "
                     f"{proc.returncode}, stderr {err!r}")
            n += 1
    # An out-of-range EQ_SWEEP_THREADS is ignored with a warning (the
    # one-point grid keeps even an unbounded parser at one thread).
    env = dict(os.environ, EQ_SWEEP_THREADS="100000")
    proc = subprocess.run(
        [os.path.join(build_dir, "src", "eqsweep"), "--model", "systolic",
         "--axis", "elem_bytes=4"], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=60)
    if proc.returncode != 0 or b"EQ_SWEEP_THREADS" not in proc.stderr:
        fail(f"EQ_SWEEP_THREADS=100000: exit {proc.returncode}, "
             f"stderr {proc.stderr.decode()!r}")
    return n + 1


def main():
    build_dir = sys.argv[1] if len(sys.argv) > 1 else "build"
    rng = random.Random(SEED)
    rejected = 0
    print(f"  {flag_fuzz(build_dir)} out-of-range count flags refused "
          f"before starting work")
    with Daemon(build_dir, 1) as daemon:
        conn = Lines(daemon.port)
        for i, (model, config, axes, field) in enumerate(EVIDENCE):
            for err in (served(conn, daemon, model, config, axes, i),
                        eqsweep(build_dir, model, config, axes)):
                if not err or f"'{field}'" not in err["message"]:
                    fail(f"evidence {model} {config} {axes}: error must "
                         f"name '{field}', got {err}")
        print(f"  {len(EVIDENCE)} evidence rows rejected, naming the "
              f"field (eqserved and eqsweep)")
        all_cases = cases(rng)
        for i, (model, config, axes) in enumerate(all_cases):
            if served(conn, daemon, model, config, axes, 1000 + i):
                rejected += 1
            # eqsweep gets every case whose request fits a command line.
            if len(json.dumps([config, axes])) < 4096:
                eqsweep(build_dir, model, config, axes)
        alive = conn.request({"op": "simulate", "id": -1,
                              "model": "systolic"})
        if not alive.get("ok"):
            fail(f"daemon stopped serving: {alive}")
        conn.request({"op": "shutdown", "id": -2})
        conn.close()
    print(f"config fuzz: {len(all_cases)} cases ({rejected} rejected as "
          f"structured errors), no crash, daemon kept serving")


if __name__ == "__main__":
    main()
