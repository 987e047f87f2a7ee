#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at test sizes (about a minute).

    python3 perfbench/test_smoke.py

Run from the repository root.  For every workload it checks that:
- a traced and an untraced run exit 0 with correct output checks;
- the JSON line carries exactly BENCHMARK.json's metrics, with its units;
- the table names every metric of the workload with its unit;
- counts and sim-clock metrics repeat exactly across runs of one seed and
  between traced and untraced runs;
- the traced run writes a loadable Chrome trace and the ledger;
- a traced run works under a 64 MiB file-size limit.
It also checks the clbg reference outputs against the EXPERIMENTS.md
correctness anchors, and that the command fails without a result in a
directory holding only BENCHMARK.json and perfbench/.
"""

import glob
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    with open(path) as f:
        return f.read()


BENCH = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
# openloop is not among BENCHMARK.json's workloads (see README.md) but
# stays runnable, so it is smoke-tested with them.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["openloop"]
SEED = 3

END_TO_END = ["wall_s", "setup_s", "minor_mwords", "peak_heap_mb", "guest_instr_per_s",
              "sim_events_per_s", "explore_runs_per_s", "sim_s", "sim_p50_us", "sim_p99_us",
              "sim_samples", "failed_frac", "attempted"]
SIM_CLOCK = ["sim_s", "sim_p50_us", "sim_p99_us", "sim_samples"]
ROW = re.compile(r"^  (\S+) +(\S+) +(\S+)(?: |$)")


def run(workload, trace, cwd=ROOT, preexec_fn=None):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600, preexec_fn=preexec_fn)
    return out


def parse(out):
    lines = out.stdout.strip().splitlines()
    rows = {}
    for line in lines[:-1]:
        m = ROW.match(line)
        if m and not line.startswith("  pass "):
            rows[m.group(1)] = (m.group(2), m.group(3))
    return json.loads(lines[-1]), rows


class Smoke(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for key in [(w, 0, "a"), (w, 0, "b"), (w, 1, "a")]:
                out = run(w, key[1])
                assert out.returncode == 0, f"{key}: exit {out.returncode}\n{out.stdout}\n{out.stderr}"
                cls.runs[key] = parse(out)

    def test_result_and_checks(self):
        for (w, trace, _), (res, _) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)

    def test_json_metrics_match_benchmark_json(self):
        for (w, trace, _), (res, _) in self.runs.items():
            spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(list(res["metrics"]), [m["name"] for m in spec])
                for m in spec:
                    self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(res["metrics"][m["name"]]["value"], (int, float))
                if not trace:
                    for m in spec:
                        self.assertNotEqual(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_table_names_every_metric_with_its_unit(self):
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        for (w, trace, _), (_, rows) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                for name in END_TO_END + ([m["name"] for m in BENCH["per_layer"]] if trace else []):
                    self.assertIn(name, rows)
                    if name in units:
                        self.assertEqual(rows[name][1], units[name], name)
                self.assertEqual(float(rows["failed_frac"][0]), 0.0)
                if trace:
                    items = [n for n in rows if re.fullmatch(r"(racket|check)\.[^.]+\.wall_s", n)]
                    expected = {"clbg": 7, "openloop": 0, "mvcheck": 15}[w]
                    self.assertEqual(len(items), expected)

    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            a_res, a_rows = self.runs[(w, 0, "a")]
            b_res, b_rows = self.runs[(w, 0, "b")]
            _, t_rows = self.runs[(w, 1, "a")]
            with self.subTest(workload=w):
                self.assertEqual(a_res["metrics"]["minor_mwords"], b_res["metrics"]["minor_mwords"])
                for name in SIM_CLOCK:
                    self.assertEqual(a_rows[name][0], b_rows[name][0], name)
                    self.assertEqual(a_rows[name][0], t_rows[name][0], name)

    def test_traced_counts_repeat_across_runs(self):
        counts = ["engine.events", "racket.vm_instructions", "check.runs", "hvm.fabric_calls",
                  "ros.syscalls", "hvm.sim_cycles_per_forwarded_call"]
        for w in WORKLOADS:
            first = self.runs[(w, 1, "a")][0]["metrics"]
            again = parse(run(w, 1))[0]["metrics"]
            with self.subTest(workload=w):
                for name in counts:
                    self.assertEqual(first[name]["value"], again[name]["value"], name)

    def test_trace_artifacts(self):
        for w in WORKLOADS:
            base = os.path.join(ROOT, ".bench_out", f"{w}-seed{SEED}")
            with self.subTest(workload=w):
                trace = json.loads(read(base + ".trace.json"))
                events = trace["traceEvents"]
                self.assertTrue(events)
                ids = {e["args"]["id"] for e in events}
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertTrue(e["args"]["parent"] == 0 or e["args"]["parent"] in ids)
                ledger = json.loads(read(base + ".ledger.json"))
                self.assertIn("trace.overhead_s", ledger)

    def test_reference_outputs_carry_the_anchors(self):
        ref = os.path.join(ROOT, "perfbench", "ref")
        for path in glob.glob(os.path.join(ref, "n-body.*.out")):
            self.assertEqual(read(path).splitlines()[0], "-0.169075164")
        fastas = glob.glob(os.path.join(ref, "fasta.*.out"))
        self.assertEqual(len(fastas), 2)
        for path in fastas:
            text = read(path)
            self.assertIn("cttBtatcatatgctaKggNcataaaSatgt", text)
            self.assertEqual(text, read(path.replace("fasta.", "fasta-3.")))

    def test_traced_run_under_a_file_size_limit(self):
        # The runtime_events ring file must fit a 64 MiB file-size limit
        # (the runtime aborts when it cannot size that file).
        limit = 64 << 20

        def cap():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        out = run(WORKLOADS[0], 1, preexec_fn=cap)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        res, rows = parse(out)
        self.assertTrue(res["correct"])
        self.assertEqual(float(rows["ocaml_gc.lost_events"][0]), 0.0)

    def test_fails_without_the_program(self):
        iso = os.path.join(ROOT, ".bench_out", "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(iso, "perfbench"))
        try:
            out = run(WORKLOADS[0], 0, cwd=iso)
            self.assertNotEqual(out.returncode, 0)
            self.assertFalse(any(line.startswith("{") for line in out.stdout.splitlines()))
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
