"""Stage-by-stage benchmark of the newsgeo batch pipeline.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a newsgeo source tree. The workload's synth shape
(pipebench/workloads.json) plus the seed make the inputs: `newsgeo synth`
writes them, then the ten analysis stages `ingest` ... `report` run the way
the README documents, one `newsgeo <stage>` process at a time, so the
benchmark never has more than itself and one stage process alive.

--trace 0 times the pipeline with tracing off: synth runs three times (its
median wall is `setup_s`), then the analysis stages repeat while the next
repeat fits in --seconds, and the median repeat is `pipeline_s`.
--trace 1 runs synth once under pipebench/tracer.py, the analysis stages
once untraced and once traced, and reports the per-module metrics.

Every repeat is checked against the synth ledger (pipebench/checks.py). The
last line of stdout is one JSON object: correct, attempted and failed stage
processes, and the metrics. The run's directory .pipebench-work/<workload>-
seed<seed>-trace<0|1>/ keeps the stage log, the traces and record.json: the
source digest, versions, nproc, every stage's wall time and peak RSS, and a
fixed-work CPU calibration time taken next to each synth and repeat.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import artifact_digest, count_identities, output_checks
from tracer import LAYERS

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench-work"

STAGES = ("ingest", "classify", "geolocate", "attributes", "scale", "regress",
          "diffusion", "connectivity", "contagion", "report")
SELF_STAGES = ("ingest", "classify", "geolocate", "scale", "diffusion",
               "connectivity", "contagion")
SETUP_REPEATS = 3
# Self times of one traced stage process must sum to its wall time, up to
# what no span covers: interpreter start-up (~0.06 s), interpreter shutdown
# freeing numpy and scipy (~0.2 s), the tracer's set-up and its trace write.
TRACE_TOLERANCE_S = 0.5
TRACE_TOLERANCE_SHARE = 0.05


def calibrate():
    """Seconds for a fixed pure-Python loop: machine speed next to a repeat."""
    started = perf()
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7
    return perf() - started


def run_process(argv, env, log_path):
    """Run one process to completion; return (wall s, exit code, peak RSS MB)."""
    with open(log_path, "ab") as log:
        started = perf()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf() - started
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, code, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload, seed, trace):
        self.dir = WORK / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        self.traces = self.dir / "traces"
        self.traces.mkdir(parents=True)
        self.out.mkdir()
        self.cfg = self.dir / "config.json"
        shape = json.loads((HERE / "workloads.json").read_text())
        self.config = {"seed": seed, "min_states": 5,
                       "synth": shape["workloads"][workload]["synth"]}
        self.cfg.write_text(json.dumps(self.config))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = self.dir / "stages.log"
        self.started = self.failed = 0
        self.checks_run = self.checks_failed = 0
        self.failures = []
        self.calibration_s = []
        self.ledger = None

    def stage(self, stage, trace_path=None):
        args = [stage, "--config", str(self.cfg), "--out-dir", str(self.out)]
        if trace_path is None:
            argv = [sys.executable, "-m", "newsgeo.cli"] + args
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + args
        wall, code, rss = run_process(argv, self.env, self.log)
        self.started += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{stage} exited {code}")
        return {"stage": stage, "wall_s": wall, "exit": code, "rss_mb": rss}

    def check(self, name, passed):
        self.checks_run += 1
        if not passed:
            self.checks_failed += 1
            self.failures.append(f"check {name} failed")

    def setup(self, traced=False):
        self.calibration_s.append(calibrate())
        trace = self.traces / "synth.json" if traced else None
        result = self.stage("synth", trace)
        ledger_path = self.out / "synth" / "ledger.json"
        if result["exit"] == 0:
            self.ledger = json.loads(ledger_path.read_text())
            result["digest"] = artifact_digest(str(self.out / "synth"), skip=())
            result["archive_mb"] = \
                (self.out / "synth" / "archive.ndjson").stat().st_size / 2**20
        return result

    def pipeline(self, traced=False):
        """One repeat of the ten analysis stages on the synth outputs,
        followed by the output checks."""
        self.calibration_s.append(calibrate())
        for entry in self.out.iterdir():
            if entry.name != "synth":
                shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        stages = [self.stage(s, self.traces / f"{s}.json" if traced else None)
                  for s in STAGES]
        repeat = {"stages": stages,
                  "pipeline_s": sum(s["wall_s"] for s in stages),
                  "artifact_mb": sum(p.stat().st_size for p in self.out.rglob("*")
                                     if p.is_file() and "synth" not in
                                     p.relative_to(self.out).parts) / 2**20}
        if self.ledger is not None:
            for name, passed in output_checks(str(self.out), self.ledger,
                                              self.config["min_states"]):
                self.check(name, passed)
        repeat["digest"] = artifact_digest(str(self.out),
                                           skip=("manifests", "synth"))
        return repeat

    def check_same(self, name, runs):
        self.check(name, len({r.get("digest") for r in runs}) == 1)

    def result(self, metrics):
        return {"correct": self.failed == 0 and self.checks_failed == 0,
                "attempted": self.started, "failed": self.failed,
                "metrics": metrics}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(num, den):
    return num / den if den else 0.0


def timed_run(bench, seconds):
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    bench.check_same("synth_digest_across_setups", setups)
    repeats = []
    measure_start = perf()
    while True:
        repeats.append(bench.pipeline())
        per_repeat = statistics.median(r["pipeline_s"] for r in repeats)
        if perf() - measure_start + per_repeat > seconds:
            break
    if len(repeats) > 1:
        bench.check_same("artifact_digest_across_repeats", repeats)
    checks = bench.checks_run
    metrics = {
        "pipeline_s": _metric(statistics.median(r["pipeline_s"] for r in repeats), "s"),
        "peak_rss_mb": _metric(max(s["rss_mb"] for r in repeats for s in r["stages"]), "MB"),
        "setup_s": _metric(statistics.median(s["wall_s"] for s in setups), "s"),
        "setup_peak_rss_mb": _metric(max(s["rss_mb"] for s in setups), "MB"),
        "stage_ok_ratio": _metric(_ratio(bench.started - bench.failed, bench.started), "ratio"),
        "check_ok_ratio": _metric(_ratio(checks - bench.checks_failed, checks), "ratio"),
    }
    return metrics, {"setups": setups, "repeats": repeats}


def _load_trace(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {"spans": {}, "counters": {}}


def traced_run(bench):
    setup = bench.setup(traced=True)
    plain = bench.pipeline()
    traced = bench.pipeline(traced=True)
    bench.check_same("artifact_digest_traced_vs_untraced", [plain, traced])

    spans, counters = {}, {}
    by_stage, unspanned = {}, {}
    for st in [setup] + traced["stages"]:
        trace = _load_trace(bench.traces / f"{st['stage']}.json")
        by_stage[st["stage"]] = trace
        for name, (calls, total, self_s) in trace["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for key, n in trace["counters"].items():
            counters[key] = counters.get(key, 0) + n
        unspanned[st["stage"]] = gap = \
            st["wall_s"] - sum(s[2] for s in trace["spans"].values())
        bench.check(f"self_times_sum_to_wall_{st['stage']}", abs(gap) <=
                    TRACE_TOLERANCE_S + TRACE_TOLERANCE_SHARE * st["wall_s"])
    ledger = bench.ledger or {"n_records": 0, "n_malformed": 0,
                              "url_mention_total": -1, "interaction_pairs": []}
    for name, passed in count_identities(counters, ledger):
        bench.check(name, passed)

    def self_s(name):
        return _metric(spans.get(name, [0, 0.0, 0.0])[2], "s")

    def calls(name):
        return _metric(spans.get(name, [0])[0] or counters.get(name + ".calls", 0), "count")

    def count(key):
        return _metric(counters.get(key, 0), "count")

    def ratio(num, den):
        return _metric(_ratio(counters.get(num, 0), counters.get(den, 0)), "ratio")

    lines = ledger["n_records"] + ledger["n_malformed"]
    metrics = {"cli.import_s": _metric(sum(
        by_stage[s]["spans"].get("cli.import", [0, 0.0])[1] for s in STAGES), "s")}
    for st in traced["stages"]:
        metrics[f"cli.{st['stage']}.wall_s"] = _metric(st["wall_s"], "s")
    for stage in SELF_STAGES:
        metrics[f"cli.{stage}.self_s"] = _metric(sum(
            agg[2] for name, agg in by_stage[stage]["spans"].items()
            if name == "cli.main" or name.startswith("cli._read")), "s")
    for layer in LAYERS:  # cli.import is reported apart, as cli.import_s
        metrics[f"{layer}.self_s"] = _metric(sum(
            agg[2] for name, agg in spans.items()
            if name.split(".", 1)[0] == layer and name != "cli.import"), "s")
    for st in plain["stages"]:
        metrics[f"cli.{st['stage']}.peak_rss_mb"] = _metric(st["rss_mb"], "MB")
    metrics.update({
        "cli.artifact_mb": _metric(plain["artifact_mb"], "MB"),
        "cli.unspanned_s": _metric(sum(unspanned[s] for s in STAGES), "s"),
        "corpus_ingest.stream_comments.self_s": self_s("corpus_ingest.stream_comments"),
        "corpus_ingest.lines_parsed": count("corpus_ingest.lines_parsed"),
        "corpus_ingest.parse_passes": _metric(
            _ratio(counters.get("corpus_ingest.lines_parsed", 0), lines), "ratio"),
        "corpus_ingest.iter_url_mentions.self_s": self_s("corpus_ingest.iter_url_mentions"),
        "corpus_ingest.mentions": count("corpus_ingest.iter_url_mentions.items"),
        "corpus_ingest.build_author_index.self_s": self_s("corpus_ingest.build_author_index"),
        "news_catalog.classify_mentions.self_s": self_s("news_catalog.classify_mentions"),
        "news_catalog.match_host.calls": calls("news_catalog.match_host"),
        "news_catalog.match_ratio": ratio("news_catalog.classify_mentions.items",
                                          "corpus_ingest.iter_url_mentions.items"),
        "geolocation.tally_user_states.self_s": self_s("geolocation.tally_user_states"),
        "geolocation.resolve_assignments.self_s": self_s("geolocation.resolve_assignments"),
        "geolocation.assigned_ratio": ratio("geolocation.assigned",
                                            "geolocation.mapped_authors"),
        "geolocation.state_user_counts.calls": calls("geolocation.state_user_counts"),
        "scaling_laws.circulation_residual.self_s": self_s("scaling_laws.circulation_residual"),
        "scaling_laws.circulation_models.self_s": self_s("scaling_laws.circulation_models"),
        "stats_core.step_aic.self_s": self_s("stats_core.step_aic"),
        "stats_core.ols_fit.calls": calls("stats_core.ols_fit"),
        "stats_core.ols_fit.self_s": self_s("stats_core.ols_fit"),
        "state_attributes.zscore.calls": calls("state_attributes.zscore"),
        "state_attributes.cross_correlation.self_s": self_s("state_attributes.cross_correlation"),
        "diffusion.build_url_timelines.self_s": self_s("diffusion.build_url_timelines"),
        "diffusion.build_url_timelines.calls": calls("diffusion.build_url_timelines"),
        "diffusion.timelines": count("diffusion.timelines"),
        "diffusion.distinct_units.calls": calls("diffusion.distinct_units"),
        "diffusion.reach_distribution.self_s": self_s("diffusion.reach_distribution"),
        "diffusion.cascade_times.self_s": self_s("diffusion.cascade_times"),
        "interaction.build_interaction_pairs.self_s": self_s("interaction.build_interaction_pairs"),
        "interaction.connectivity_profile.self_s": self_s("interaction.connectivity_profile"),
        "interaction.centroid_distance.calls": calls("interaction.centroid_distance"),
        "interaction.reply_records": count("interaction.reply_records"),
        "interaction.pairs": count("interaction.pairs"),
        "interaction.resolved_ratio": ratio("interaction.pairs_added",
                                            "interaction.reply_records"),
        "contagion.infer_state_network.self_s": self_s("contagion.infer_state_network"),
        "contagion.pagerank.self_s": self_s("contagion.pagerank"),
        "contagion.pagerank.calls": calls("contagion.pagerank"),
        "contagion.edges": count("contagion.edges"),
        "contagion.qualify_ratio": ratio("contagion.qualifying_urls",
                                         "contagion.label_timelines"),
        "synth.generate.self_s": self_s("synth.generate"),
        "synth.write_outputs.self_s": self_s("synth.write_outputs"),
        "synth.archive_mb": _metric(setup.get("archive_mb", 0.0), "MB"),
        "trace_overhead": _metric(_ratio(traced["pipeline_s"], plain["pipeline_s"]), "ratio"),
    })
    return metrics, {"setups": [setup], "repeats": [plain, traced],
                     "counters": counters}


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None):
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "newsgeo" / "cli.py").is_file():
        print(f"no newsgeo source under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    # compile once up front so no timed process pays for writing bytecode
    compileall.compile_dir(str(SRC), quiet=1)

    bench = Bench(args.workload, args.seed, args.trace)
    if args.trace:
        metrics, detail = traced_run(bench)
    else:
        metrics, detail = timed_run(bench, args.seconds)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": bench.calibration_s,
        "failures": bench.failures, "metrics": metrics, **detail,
    }
    if bench.failures and bench.log.exists():
        record["log_tail"] = bench.log.read_text(errors="replace").splitlines()[-30:]
    record_path = bench.dir / "record.json"
    record_path.write_text(json.dumps(record, indent=1))
    shutil.rmtree(bench.out, ignore_errors=True)
    for failure in bench.failures:
        print(failure, file=sys.stderr)
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps(bench.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
