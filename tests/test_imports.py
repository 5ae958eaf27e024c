"""A stage process imports only the modules it runs, and the lazily imported
package still serves `newsgeo.<module>` to code that looks modules up by
name, as pipebench/tracer.py does."""

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
TRACER = os.path.join(ROOT, "pipebench", "tracer.py")

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
_SCALING = {"corpus_ingest", "news_catalog", "scaling_laws",
            "state_attributes", "states", "stats_core"}

# stage -> (newsgeo modules loaded, numpy loaded, scipy.special loaded)
IMPORT_BUDGET = {
    "synth": ({"corpus_ingest", "news_catalog", "states", "synth"},
              True, False),
    "ingest": ({"corpus_ingest"}, False, False),
    "classify": ({"corpus_ingest", "news_catalog"}, False, False),
    "geolocate": ({"corpus_ingest", "geolocation", "states", "stats_core"},
                  True, False),
    "attributes": ({"state_attributes", "states", "stats_core"}, True, True),
    "scale": (_SCALING | {"geolocation"}, True, False),
    "regress": (_SCALING, True, True),
    "diffusion": ({"corpus_ingest", "diffusion", "geolocation",
                   "news_catalog", "states"}, False, False),
    "connectivity": ({"corpus_ingest", "geolocation", "interaction",
                      "states"}, False, False),
    "contagion": ({"contagion", "diffusion", "state_attributes", "states",
                   "stats_core"}, True, False),
    "report": (set(), False, False),
}

_PROBE = """
import json, sys
from newsgeo.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "newsgeo": sorted(m.split(".", 1)[1] for m in sys.modules
                      if m.startswith("newsgeo.")),
    "numpy": "numpy" in sys.modules,
    "scipy.special": "scipy.special" in sys.modules,
}))
"""


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


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
    cfg, out = pipeline
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, stage, "--config", cfg,
         "--out-dir", out],
        check=True, capture_output=True, text=True, env=_env())
    loaded = json.loads(proc.stdout.splitlines()[-1])
    modules, numpy, scipy_special = IMPORT_BUDGET[stage]
    assert loaded["code"] == 0, proc.stderr
    assert set(loaded["newsgeo"]) == _BASE | modules
    assert loaded["numpy"] is numpy
    assert loaded["scipy.special"] is scipy_special


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
