"""A stage process imports only the modules it runs and starts no BLAS
thread, and the lazily imported package still serves `newsgeo.<module>` to
code that looks modules up by name, as pipebench/tracer.py does."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import newsgeo
from newsgeo.cli import STAGES, main

SRC = os.path.dirname(os.path.dirname(newsgeo.__file__))
ROOT = os.path.dirname(SRC)
PIPEBENCH = os.path.join(ROOT, "pipebench")
TRACER = os.path.join(PIPEBENCH, "tracer.py")

CONFIG = {
    "seed": 3,
    "synth": {"n_states": 30, "base_users": 8.0,
              "tie_user_fraction": 0.05,
              "interaction_users_per_state": 3,
              "connectivity_base": 0.3,
              "n_cascade_urls": 40,
              "cascade_states_range": [2, 8]},
}

# every stage loads newsgeo, cli, config and errors
_BASE = {"cli", "config", "errors"}

# stage -> (newsgeo modules loaded, numpy loaded); no stage loads scipy.
# A stage table's record class is declared in `states`, so a stage loads no
# analysis module for a row type alone.
IMPORT_BUDGET = {
    "synth": ({"states", "synth"}, True),
    "ingest": ({"corpus_ingest", "states"}, False),
    "classify": ({"news_catalog", "states"}, False),
    "geolocate": ({"geolocation", "states"}, False),
    "attributes": ({"state_attributes", "states", "stats_core"}, True),
    "scale": ({"geolocation", "states", "stats_core"}, True),
    "regress": ({"scaling_laws", "state_attributes", "states", "stats_core"},
                True),
    "diffusion": ({"diffusion", "states"}, False),
    "connectivity": ({"geolocation", "interaction", "states"}, False),
    "contagion": ({"contagion", "state_attributes", "states", "stats_core"},
                  True),
    "report": (set(), False),
}

# Runs a stage through `process_main`, the benchmark's entry, with
# `os._exit` wrapped: the wrapper prints what the process loaded and its exit
# code, then exits. The OS threads are counted where /proc lists them, and
# are None elsewhere.
_PROBE = """
import json, os, sys
from newsgeo import cli

def report(code):
    print(json.dumps({
        "code": code,
        "newsgeo": sorted(m.split(".", 1)[1] for m in sys.modules
                          if m.startswith("newsgeo.")),
        "numpy": "numpy" in sys.modules,
        "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        "threads": len(os.listdir("/proc/self/task"))
                   if os.path.isdir("/proc/self/task") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }), flush=True)
    hard_exit(code)

hard_exit, os._exit = os._exit, report
cli.process_main()
print(json.dumps({"code": "process_main returned"}))
"""


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


def _probe(stage, cfg, out, **env):
    """Run `stage` under `process_main` in a fresh process, with no
    OPENBLAS_NUM_THREADS in its environment unless `env` sets it; return
    what the probe reports once the stage ends through `os._exit` with
    code 0."""
    base = _env()
    # the caller's environment may set it
    base.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, stage, "--config", cfg,
         "--out-dir", out],
        check=True, capture_output=True, text=True, env={**base, **env})
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["code"] == 0, proc.stderr
    return loaded


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A finished pipeline run on a small synth corpus: its config path
    and output directory."""
    tmp = tmp_path_factory.mktemp("imports")
    cfg = str(tmp / "run.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    out = str(tmp / "out")
    assert main(["synth", "--config", cfg, "--out-dir", out]) == 0
    assert main(["all", "--config", cfg, "--out-dir", out]) == 0
    return cfg, out


@pytest.mark.parametrize("stage", STAGES)
def test_stage_imports_only_what_it_runs(pipeline, stage):
    loaded = _probe(stage, *pipeline)
    modules, numpy = IMPORT_BUDGET[stage]
    assert set(loaded["newsgeo"]) == _BASE | modules
    assert loaded["numpy"] is numpy
    assert loaded["scipy"] == []
    # numpy loads OpenBLAS with one thread, so no pool is started; on a
    # 1-core host OpenBLAS starts none anyway
    assert loaded["blas_threads"] == "1"
    assert loaded["threads"] in (1, None)


def test_stage_keeps_callers_blas_threads(pipeline):
    loaded = _probe("scale", *pipeline, OPENBLAS_NUM_THREADS="2")
    assert loaded["numpy"] is True
    assert loaded["blas_threads"] == "2"


def test_readme_numpy_table_matches_the_budget():
    # the README's `| stages | numpy |` table: each row lists stages, then
    # whether they load numpy
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().split("| stages | numpy |\n", 1)[1].splitlines()
    listed = []
    for line in lines[1:]:
        if not line.startswith("|"):
            break
        stages, numpy = (cell.strip() for cell in line.strip("|").split("|"))
        assert numpy in ("yes", "no"), line
        listed += [(stage.strip(" `"), numpy == "yes")
                   for stage in stages.split(",")]
    assert sorted(listed) == sorted((stage, numpy) for stage, (_, numpy)
                                    in IMPORT_BUDGET.items())
    assert len(listed) == len(STAGES) == 11


def test_package_serves_every_traced_layer():
    # pipebench/tracer.py wraps each layer it finds by getattr(newsgeo, name)
    code = ("import sys, newsgeo; sys.path.insert(0, sys.argv[1]); "
            "from tracer import LAYERS; "
            "print(all(getattr(newsgeo, name) is sys.modules["
            "'newsgeo.' + name] for name in LAYERS), len(LAYERS))")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(TRACER)],
        check=True, capture_output=True, text=True, env=_env())
    assert proc.stdout.split() == ["True", "11"]


def test_package_rejects_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_module"):
        getattr(newsgeo, "no_such_module")
    assert not hasattr(newsgeo, "no_such_module")


def test_tracer_runs_a_stage(pipeline, tmp_path):
    cfg, out = pipeline
    traced_out = tmp_path / "out"
    shutil.copytree(os.path.join(out, "synth"), traced_out / "synth")
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, TRACER, str(trace), "ingest", "--config", cfg,
         "--out-dir", str(traced_out)],
        check=True, capture_output=True, env=_env())
    spans = json.loads(trace.read_text())["spans"]
    assert "corpus_ingest.stream_comments" in spans
    assert "cli.import" in spans


# prints each benchmark output check and count identity of a traced run:
# argv is the pipebench directory, the output directory, the trace file
_CHECKS = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from checks import count_identities, output_checks
out = sys.argv[2]
with open(os.path.join(out, "synth", "ledger.json")) as fh:
    ledger = json.load(fh)
with open(sys.argv[3]) as fh:
    counters = json.load(fh)["counters"]
print(json.dumps(dict([*output_checks(out, ledger, 5),
                       *count_identities(counters, ledger)])))
"""


def test_benchmark_checks_pass_on_a_traced_run(pipeline, tmp_path):
    # the checks pipebench/run.py applies to each workload, with min_states 5
    cfg, out = pipeline
    traced_out = tmp_path / "out"
    shutil.copytree(os.path.join(out, "synth"), traced_out / "synth")
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, TRACER, str(trace), "all", "--config", cfg,
         "--out-dir", str(traced_out)],
        check=True, capture_output=True, env=_env())
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKS, PIPEBENCH, str(traced_out),
         str(trace)], check=True, capture_output=True, text=True, env=_env())
    checks = json.loads(proc.stdout)
    assert len(checks) == 13
    assert [name for name, passed in checks.items() if not passed] == []
