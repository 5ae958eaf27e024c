import ast
import csv
import dataclasses
import glob
import hashlib
import inspect
import io
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import newsgeo
from newsgeo import cli, errors, states
from newsgeo.cli import STAGES, main
from newsgeo.config import (INPUT_FILES, LABELS, RunConfig, config_from_dict,
                            config_load)
from newsgeo.corpus_ingest import StreamLedger, extract_urls, stream_comments
from newsgeo.errors import ConfigurationError, NewsgeoError
from newsgeo.states import (DELETED_AUTHOR, STATE_CODES, FirstExposure,
                            NewsComment, Reply, Residual, SubredditCount,
                            UrlMention)
from newsgeo.synth import SynthConfig

from conftest import DEFAULTS, artifact_bytes, make_record, run_contagion


PIPELINE_CONFIG = {
    "seed": 7,
    "synth": {"n_states": 30, "base_users": 8.0,
              "tie_user_fraction": 0.05,
              "deleted_comment_fraction": 0.02,
              "n_malformed_lines": 3,
              "interaction_users_per_state": 3,
              "connectivity_base": 0.3,
              "n_cascade_urls": 40,
              "cascade_states_range": [2, 8]},
}


def write_config(tmp_path, data):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.bin_km == 100.0
        assert cfg.damping == 0.85
        assert cfg.min_states == 5
        assert cfg.rule == "chain"
        assert cfg.cascade_ks == [2, 3, 5]

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert config_load(str(path)) == RunConfig()

    # residual_intercept: the scaling-law fit always has an intercept
    @pytest.mark.parametrize("key", ["dampnig", "residual_intercept"])
    def test_unknown_key_named_in_error(self, key):
        with pytest.raises(ConfigurationError, match=f"unknown .*{key}"):
            config_from_dict({key: 0.9})

    @pytest.mark.parametrize("key,value", [
        ("damping", 1.5),
        ("bin_km", -10),
        ("scope", "everything"),
        ("rule", "ring"),
        ("aic_direction", "sideways"),
        ("min_states", 1),
        ("cascade_ks", [1, 2]),
        ("alpha", 2.0),
        ("bin_km", "x"),
        ("cascade_ks", 5),
        ("cascade_ks", [2.5]),
        ("min_states", "5"),
        ("damping", None),
        ("residual_intercept", "no"),      # not a key: refused as unknown
        ("seed", True),
        ("synth", []),
        ("cascade_ks", [3, 2, 3]),         # a repeated k writes its rows twice
        ("bin_km", 1e-310),                # pi * 6371 km / bin_km overflows
        ("bin_km", 1e400),                 # JSON's 1e400 reads as inf
    ])
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({key: value})


def test_every_config_field_is_read_by_the_cli():
    # a key no stage reads is a dead knob: wire it up or delete it
    source = inspect.getsource(cli)
    read = set(re.findall(r"\bcfg\.(\w+)\b(?!\s*=[^=])", source))
    # an input key is read through `run.input`, the catalogs one per label
    for name in re.findall(r'\brun\.input\(f?"([\w{}]+)"\)', source):
        read |= {name.format(label=label) for label in LABELS}
    unread = {f.name for f in dataclasses.fields(RunConfig)} - read
    assert not unread, f"config keys never read by a stage: {sorted(unread)}"


def test_input_files_name_every_input_key():
    # an input path key is one whose default is None, and synth writes a
    # file in its place for each
    assert set(INPUT_FILES) == {f.name for f in dataclasses.fields(RunConfig)
                                if f.default is None}


def test_only_the_config_defaults_an_analysis_parameter():
    # a value defaulted in two places can drift apart: RunConfig holds each
    # default, and every other function takes the value from its caller
    names = {f.name for f in dataclasses.fields(RunConfig)} | {"qualify"}
    defaulted = []
    for info in pkgutil.iter_modules(newsgeo.__path__):
        if info.name == "config":
            continue
        module = getattr(newsgeo, info.name)
        public = [obj for name, obj in vars(module).items()
                  if not name.startswith("_") and
                  getattr(obj, "__module__", None) == module.__name__]
        functions = [obj for obj in public if inspect.isfunction(obj)] + [
            fn for cls in public if inspect.isclass(cls)
            for name, fn in vars(cls).items()
            if inspect.isfunction(fn) and not name.startswith("_")]
        defaulted += [f"{fn.__module__}.{fn.__qualname__}({name})"
                      for fn in functions
                      for name, param in inspect.signature(fn)
                      .parameters.items()
                      if name in names and param.default is not param.empty]
    assert not defaulted, f"defaults outside RunConfig: {defaulted}"


def package_trees():
    """The syntax tree of every module of the package."""
    return [ast.parse(inspect.getsource(getattr(newsgeo, info.name)))
            for info in pkgutil.iter_modules(newsgeo.__path__)]


def test_every_error_class_is_raised():
    # a class nothing raises documents an exit that cannot happen; the base
    # class is what `main` catches
    raised = set()
    for tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    classes = {name for name, klass in inspect.getmembers(errors,
                                                          inspect.isclass)
               if issubclass(klass, NewsgeoError) and klass is not NewsgeoError}
    assert not classes - raised, \
        f"error classes never raised: {sorted(classes - raised)}"


# public functions the package never calls: acceptance criterion 9 tests
# the trust-score check, which `classify` does not run yet
UNCALLED_BY_DESIGN = {"validate_trust_scores"}


def test_every_public_function_is_referenced():
    # a function only its own body names is dead code: call it or delete it
    public, referenced = set(), set()
    for tree in package_trees():
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and not own.startswith("_"):
                public.add(own)
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            referenced |= names - {own}
    unreferenced = public - referenced - UNCALLED_BY_DESIGN
    assert not unreferenced, \
        f"public functions nothing references: {sorted(unreferenced)}"


def readme_config_tables():
    """{first header cell: {key: default}} for each table under the
    README's "Config keys" heading, the defaults read as JSON."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Config keys\n", 1)[1].split("\n#", 1)[0]
    tables, rows = {}, None
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not line.startswith("|") or set(cells[0]) <= set("-"):
            continue
        if cells[0].startswith("`"):
            rows[cells[0].strip("`")] = json.loads(cells[1].strip("`"))
        else:
            rows = tables.setdefault(cells[0], {})
    return tables


@pytest.mark.parametrize("header,cls", [("key", RunConfig),
                                        ("synth key", SynthConfig)])
def test_readme_lists_every_config_key_with_its_default(header, cls):
    # adding, removing or changing a knob shows in the docs; the synth block
    # takes no seed, since the top-level `seed` is the synth seed
    defaults = json.loads(json.dumps(dataclasses.asdict(cls())))
    if cls is SynthConfig:
        del defaults["seed"]
    assert readme_config_tables()[header] == defaults


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"rule": "ring"})
        assert main(["ingest", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2

    def test_missing_dependency_exits_3(self, tmp_path):
        assert main(["ingest", "--out-dir", str(tmp_path / "out")]) == 3

    def test_report_before_anything_exits_3(self, tmp_path):
        assert main(["report", "--out-dir", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("text", [
        b'{"bin_km": "x"}', b'{"cascade_ks": 5}', b'{"min_states": "5"}',
        b'{"damping": null}', b'{"residual_intercept": "no"}',
        b'{"synth": {"n_states": "50"}}', b'{"seed": ', b'{"rule": "\xff"}',
        b'{"bin_km": NaN}', b'{"bin_km": Infinity}',
        b'{"synth": {"circulation_base": NaN}}'])
    def test_bad_config_type_or_json_exits_2(self, tmp_path, caplog, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["synth", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "ConfigurationError" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_synth_block_seed_exits_2(self, tmp_path, caplog):
        # the top-level seed is the one synth seed
        cfg = write_config(tmp_path, {"synth": {"n_states": 5, "seed": 4}})
        assert main(["synth", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "top-level key 'seed'" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_6(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "out")]) == 6


# the exit code the README documents for each error class
DOCUMENTED_EXIT_CODES = {
    "ConfigurationError": 2,
    "DependencyError": 3,
    "DataIntegrityError": 4,
    "FormatError": 5,
    # data too thin or too degenerate for a fit
    "InsufficientDataError": 1,
    "SingularDesignError": 1,
    "DegenerateVariableError": 1,
    "UndefinedCorrelationError": 1,
}


@pytest.mark.parametrize("klass", [
    klass for _, klass in inspect.getmembers(errors, inspect.isclass)
    if issubclass(klass, NewsgeoError) and klass is not NewsgeoError],
    ids=lambda klass: klass.__name__)
def test_error_class_exits_with_documented_code(tmp_path, monkeypatch, klass):
    assert klass.__name__ in DOCUMENTED_EXIT_CODES, \
        f"{klass.__name__} has no documented exit code"

    def fail(cfg, run):
        raise klass("planted")
    monkeypatch.setitem(cli.STAGE_TABLE, "report", (fail, ()))
    assert main(["report", "--out-dir", str(tmp_path)]) == \
        DOCUMENTED_EXIT_CODES[klass.__name__]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden_digests.json")


def pipeline_digests(outdir):
    """The golden table of a finished run: the sha256 of every file outside
    manifests/, each manifest's `rows` and `parameters`, and the versions
    that made them. To re-pin, run `synth` and `all` on PIPELINE_CONFIG,
    write this function's result for that directory as JSON, and keep only
    the entries the change declares."""
    import numpy
    manifests = {}
    for name in sorted(os.listdir(os.path.join(outdir, "manifests"))):
        with open(os.path.join(outdir, "manifests", name)) as fh:
            manifest = json.load(fh)
        manifests[name] = {key: manifest[key] for key in ("rows", "parameters")}
    return {
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__},
        "files": {rel.replace(os.sep, "/"): hashlib.sha256(data).hexdigest()
                  for rel, data in sorted(artifact_bytes(outdir).items())},
        "manifests": manifests,
    }


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp, PIPELINE_CONFIG)
    out = str(tmp / "out")
    assert main(["synth", "--config", cfg, "--out-dir", out]) == 0
    assert main(["all", "--config", cfg, "--out-dir", out]) == 0
    return out


class TestPipeline:
    def test_all_manifests_written(self, outdir):
        peaks = []
        for stage in STAGES:
            path = os.path.join(outdir, "manifests", f"{stage}.json")
            assert os.path.exists(path)
            manifest = json.loads(open(path).read())
            assert manifest["stage"] == stage
            assert manifest["wall_time_s"] >= 0
            assert manifest["peak_rss_mb"] > 0
            peaks.append(manifest["peak_rss_mb"])
        # `all` runs its stages in one process, so each manifest holds the
        # process's high-water mark so far
        assert peaks[1:] == sorted(peaks[1:])

    def test_report_bundle_complete(self, outdir):
        report = os.path.join(outdir, "report")
        bundled = ["attribute_correlations.csv", "contagion.json", "fig3a.csv",
                   "fig3b.csv", "fig5.csv", "pagerank.csv",
                   "scaling_points.csv", "table1.csv", "table3.csv"]
        assert sorted(os.listdir(report)) == sorted(bundled + ["summary.json"])
        summary = json.loads(open(os.path.join(report, "summary.json")).read())
        assert summary["artifacts"] == bundled
        assert "scaling_fits" in summary
        assert "geolocate_summary" in summary

    def test_report_holds_every_north_star_output(self, outdir):
        report = os.path.join(outdir, "report")
        summary = json.loads(open(os.path.join(report, "summary.json")).read())
        assert set(summary["scaling_fits"]) == \
            {"adoption", "fake", "lowcred", "satire", "reputable"}
        for family, names in NORTH_STAR.items():
            for name in names:
                with open(os.path.join(report, name), encoding="utf-8") as fh:
                    # a CSV holds a row past its header; a JSON a key
                    assert (len(fh.readlines()) > 1 if name.endswith(".csv")
                            else json.load(fh)), (family, name)

    def test_every_artifact_has_a_reader(self, outdir):
        # a reader is a later stage or `report`: the inputs its manifest
        # lists; connectivity_meta.json is read only by the benchmark's
        # output checks
        checks = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "pipebench", "checks.py")
        assert "connectivity_meta.json" in open(checks).read()
        written = {rel for rel in artifact_bytes(outdir)
                   if rel.split(os.sep)[0] not in ("synth", "report")}
        assert written == set(cli.PRODUCERS) | {"connectivity_meta.json"}
        read = set()
        for stage in STAGES:
            manifest = json.loads(open(os.path.join(
                outdir, "manifests", f"{stage}.json")).read())
            read.update(os.path.relpath(p, outdir) for p in manifest["inputs"])
        assert set(cli.PRODUCERS) <= read
        assert set(cli.REPORT_SOURCES) <= set(cli.PRODUCERS)

    def test_scaling_fits_match_persisted_counts(self, outdir):
        import csv

        from newsgeo.stats_core import fit_scaling

        fits = json.loads(open(os.path.join(outdir,
                                            "scaling_fits.json")).read())
        counts = {}
        users = {}
        with open(os.path.join(outdir, "state_type_counts.csv"),
                  newline="") as fh:
            for row in csv.DictReader(fh):
                counts.setdefault(row["news_type"], {})[row["state"]] = \
                    float(row["count"])
                users[row["state"]] = float(row["users"])
        for label, per_state in counts.items():
            fit, _ = fit_scaling(users, per_state)
            assert fits[label]["beta"] == pytest.approx(fit.beta, abs=1e-9)
            assert fits[label]["r2"] == pytest.approx(fit.r2, abs=1e-9)
        # the adoption law is the same fit, of users on population
        with open(os.path.join(outdir, "synth", "populations.csv"),
                  newline="") as fh:
            populations = {row["state"]: int(row["population"])
                           for row in csv.DictReader(fh)}
        located = {}
        with open(os.path.join(outdir, "user_locations.csv"),
                  newline="") as fh:
            for row in csv.DictReader(fh):
                if row["state"]:
                    located[row["state"]] = located.get(row["state"], 0) + 1
        fit, _ = fit_scaling(populations, located)
        assert fits["adoption"] == dataclasses.asdict(fit)
        assert fits["adoption"]["excluded_states"] == \
            sorted(set(populations) - set(located))

    def test_geolocation_counts_match_ledger(self, outdir):
        summary = json.loads(open(os.path.join(
            outdir, "geolocate_summary.json")).read())
        ledger = json.loads(open(os.path.join(outdir, "synth",
                                              "ledger.json")).read())
        assert summary["assigned"] == \
            sum(ledger["state_user_counts"].values())
        assert summary["unassigned"] == len(ledger["tie_authors"])

    def test_manifest_counts_match_ledger(self, outdir):
        ledger = json.loads(open(os.path.join(outdir, "synth",
                                              "ledger.json")).read())

        def rows(stage):
            return json.loads(open(os.path.join(
                outdir, "manifests", f"{stage}.json")).read())["rows"]
        assert ledger["tie_authors"] and ledger["interaction_pairs"]
        assert rows("geolocate")["tied"] == len(ledger["tie_authors"])
        assert rows("connectivity")["pairs"] == \
            len(ledger["interaction_pairs"])

    def test_rerun_is_byte_identical(self, outdir, tmp_path):
        # the reference for `all`: one call per stage, as the README runs them
        cfg = write_config(tmp_path, PIPELINE_CONFIG)
        out2 = str(tmp_path / "out2")
        for stage in STAGES:
            assert main([stage, "--config", cfg, "--out-dir", out2]) == 0, \
                stage
        first = artifact_bytes(outdir)
        second = artifact_bytes(out2)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"

    def test_outputs_match_golden_digests(self, outdir):
        # a deliberate output change re-pins only the entries it names
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        got = pipeline_digests(outdir)
        differ = sorted(
            name for part in ("files", "manifests")
            for name in golden[part].keys() | got[part].keys()
            if golden[part].get(name) != got[part].get(name))
        assert not differ, (f"differ from {os.path.basename(GOLDEN)} "
                            f"(pinned with {golden['versions']}): {differ}")

    def test_all_stops_at_first_failing_stage(self, outdir, tmp_path, caplog):
        out = tmp_path / "out"
        shutil.copytree(os.path.join(outdir, "synth"), out / "synth")
        os.remove(out / "synth" / "centroids.csv")
        cfg = write_config(tmp_path, PIPELINE_CONFIG)
        assert main(["all", "--config", cfg, "--out-dir", str(out)]) == 3
        assert "connectivity: DependencyError" in caplog.text
        finished = STAGES[1:STAGES.index("connectivity")]
        assert "diffusion" in finished
        assert sorted(os.listdir(out / "manifests")) == \
            sorted(f"{stage}.json" for stage in finished)


# north-star output family -> the report files that hold it; the fitted
# scaling exponents are summary.json's "scaling_fits"
NORTH_STAR = {
    "scaling laws": ("scaling_points.csv", "summary.json"),
    "attribute regressions": ("table3.csv", "attribute_correlations.csv"),
    "reach and cascade curves": ("fig3a.csv", "fig3b.csv"),
    "distance-binned connectivity": ("fig5.csv",),
    "state contagion networks": ("contagion.json", "pagerank.csv"),
}


# artifact -> (the stages that cannot run without it, the stage that writes
# it); every input is required, so these are all the stages that read it
CONSUMERS = {
    "synth/archive.ndjson": (("ingest",), "synth"),
    "synth/subreddit_states.csv": (("geolocate", "connectivity"), "synth"),
    "synth/populations.csv": (("scale",), "synth"),
    "synth/centroids.csv": (("connectivity",), "synth"),
    "synth/attributes.csv": (("attributes", "regress", "contagion"), "synth"),
    "synth/catalog_*.txt": (("classify",), "synth"),
    "synth/catalog_satire.txt": (("classify",), "synth"),
    "author_subreddits.csv": (("geolocate",), "ingest"),
    "replies.csv": (("connectivity",), "ingest"),
    "mentions.csv": (("classify",), "ingest"),
    "news_comments.csv": (("scale", "diffusion"), "classify"),
    "tallies.csv": (("report",), "classify"),
    "user_locations.csv": (("scale", "diffusion", "connectivity"),
                           "geolocate"),
    "geolocate_summary.json": (("report",), "geolocate"),
    "correlations.csv": (("report",), "attributes"),
    "state_type_counts.csv": (("report",), "scale"),
    "residuals.csv": (("regress",), "scale"),
    "scaling_fits.json": (("report",), "scale"),
    "regression_suite.csv": (("report",), "regress"),
    "reach.csv": (("report",), "diffusion"),
    "cascade_times.csv": (("report",), "diffusion"),
    "first_exposures.csv": (("contagion",), "diffusion"),
    "connectivity.csv": (("report",), "connectivity"),
    "contagion_summary.json": (("report",), "contagion"),
    "pagerank.csv": (("report",), "contagion"),
}


# stage -> every input it reads, in the manifest's sorted order
MANIFEST_INPUTS = {
    "classify": ["mentions.csv", "synth/catalog_fake.txt",
                 "synth/catalog_lowcred.txt", "synth/catalog_reputable.txt",
                 "synth/catalog_satire.txt"],
    "geolocate": ["author_subreddits.csv", "synth/subreddit_states.csv"],
    "scale": ["news_comments.csv", "synth/populations.csv",
              "user_locations.csv"],
    "connectivity": ["replies.csv", "synth/centroids.csv",
                     "synth/subreddit_states.csv", "user_locations.csv"],
    "contagion": ["first_exposures.csv", "synth/attributes.csv"],
    "report": ["cascade_times.csv", "connectivity.csv",
               "contagion_summary.json", "correlations.csv",
               "geolocate_summary.json", "pagerank.csv", "reach.csv",
               "regression_suite.csv", "scaling_fits.json",
               "state_type_counts.csv", "tallies.csv"],
}


def file_stamps(root):
    """relative path -> (size, mtime in ns) of every file under `root`"""
    stamps = {}
    for path in glob.glob(os.path.join(root, "**"), recursive=True):
        if os.path.isfile(path):
            st = os.stat(path)
            stamps[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return stamps


class TestStageInputs:
    def test_every_stage_artifact_has_a_consumer_case(self, outdir):
        assert set(cli.PRODUCERS) <= set(CONSUMERS)
        for artifact, stage in cli.PRODUCERS.items():
            assert CONSUMERS[artifact][1] == stage
        # the consumers of an artifact are the stages whose manifests list it
        readers = {}
        for stage in STAGES:
            manifest = json.loads(open(os.path.join(
                outdir, "manifests", f"{stage}.json")).read())
            for path in manifest["inputs"]:
                readers.setdefault(os.path.relpath(path, outdir),
                                   set()).add(stage)
        covered = set()
        for artifact, (consumers, _) in CONSUMERS.items():
            paths = glob.glob(os.path.join(outdir, artifact))
            assert paths, artifact
            for path in paths:
                rel = os.path.relpath(path, outdir)
                assert readers[rel] == set(consumers), artifact
                covered.add(rel)
        assert covered == set(readers)

    @pytest.mark.parametrize("artifact", sorted(CONSUMERS))
    def test_missing_artifact_names_its_producer(self, outdir, tmp_path,
                                                 caplog, artifact):
        consumers, producer = CONSUMERS[artifact]
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        removed = glob.glob(os.path.join(out, artifact))
        assert removed
        for path in removed:
            os.remove(path)
        cfg = write_config(tmp_path, PIPELINE_CONFIG)
        before = file_stamps(out)
        for consumer in consumers:
            caplog.clear()
            assert main([consumer, "--config", cfg, "--out-dir", out]) == 3, \
                consumer
            assert f"run the {producer!r} stage first" in caplog.text
            # every input is resolved before the first write
            assert file_stamps(out) == before, consumer

    # input key -> the first stage that reads it; the rest are catalogs
    FIRST_READER = {"archive": "ingest", "subreddit_map": "geolocate",
                    "populations": "scale", "centroids": "connectivity",
                    "attributes": "attributes"}

    @pytest.mark.parametrize("key", sorted(INPUT_FILES))
    def test_missing_configured_input_exits_3(self, outdir, tmp_path, caplog,
                                              key):
        stage = self.FIRST_READER.get(key, "classify")
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        missing = str(tmp_path / "no.txt")
        cfg = write_config(tmp_path, dict(PIPELINE_CONFIG, **{key: missing}))
        assert main([stage, "--config", cfg, "--out-dir", out]) == 3
        assert f"{stage}: DependencyError: configured input {key!r} " \
            f"({missing!r}) does not exist" in caplog.text
        assert "stage first" not in caplog.text

    # an empty path is a configured path, which names no file
    @pytest.mark.parametrize("key", sorted(INPUT_FILES))
    def test_empty_configured_input_exits_3(self, outdir, tmp_path, caplog,
                                            key):
        stage = self.FIRST_READER.get(key, "classify")
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        cfg = write_config(tmp_path, dict(PIPELINE_CONFIG, **{key: ""}))
        assert main([stage, "--config", cfg, "--out-dir", out]) == 3
        assert f"{stage}: DependencyError: configured input {key!r} ('') " \
            "does not exist" in caplog.text

    def test_only_ingest_reads_the_archive(self, outdir, tmp_path):
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        os.remove(os.path.join(out, "synth", "archive.ndjson"))
        cfg = write_config(tmp_path, PIPELINE_CONFIG)
        assert main(["geolocate", "--config", cfg, "--out-dir", out]) == 0
        assert main(["connectivity", "--config", cfg, "--out-dir", out]) == 0
        expected = artifact_bytes(outdir)
        del expected[os.path.join("synth", "archive.ndjson")]
        assert artifact_bytes(out) == expected

    def test_only_states_imports_csv(self):
        # one CSV codec: every other module reads and writes its tables
        # through states.open_table and states.write_table
        importers = set()
        for path in glob.glob(os.path.join(os.path.dirname(cli.__file__),
                                           "*.py")):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "csv" for name in names):
                    importers.add(os.path.basename(path))
        assert importers == {"states.py"}

    @pytest.mark.parametrize("stage", sorted(MANIFEST_INPUTS))
    def test_manifest_lists_every_input(self, outdir, stage):
        manifest = json.loads(open(os.path.join(
            outdir, "manifests", f"{stage}.json")).read())
        assert manifest["inputs"] == [os.path.join(outdir, *name.split("/"))
                                      for name in MANIFEST_INPUTS[stage]]

    def test_connectivity_manifest_counts_every_reply(self, outdir):
        rows = json.loads(open(os.path.join(
            outdir, "manifests", "connectivity.json")).read())["rows"]
        with open(os.path.join(outdir, "synth", "archive.ndjson"), "rb") as fh:
            replies = sum(1 for r in stream_comments(fh)
                          if r.parent_id is not None and
                          r.author != DELETED_AUTHOR)
        assert replies == rows["pair_events"] + rows["unresolved_parents"] + \
            rows["skipped"] + rows["self_replies"]

    def test_ingest_tables_account_for_every_comment(self, outdir):
        def rows(stage):
            return json.loads(open(os.path.join(
                outdir, "manifests", f"{stage}.json")).read())["rows"]
        ingest, connectivity = rows("ingest"), rows("connectivity")
        counts = list(cli._read_records(
            os.path.join(outdir, "author_subreddits.csv"), SubredditCount))
        replies = list(cli._read_records(
            os.path.join(outdir, "replies.csv"), Reply))
        assert ingest["deleted_author"] > 0
        assert sum(c.comments for c in counts) == ingest["records"] - \
            ingest["deleted_author"] - ingest["duplicates"]
        assert len(counts) == ingest["author_subreddits"]
        assert len(replies) == ingest["replies"] == \
            connectivity["pair_events"] + connectivity["unresolved_parents"] \
            + connectivity["skipped"] + connectivity["self_replies"]


def manifest_rows(out, stage):
    with open(os.path.join(out, "manifests", f"{stage}.json")) as fh:
        return json.load(fh)["rows"]


def test_every_reply_drop_is_counted(outdir, tmp_path):
    # one reply for each way connectivity drops one, and an author whom
    # geolocate cannot map
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    before = {stage: manifest_rows(out, stage)
              for stage in ("ingest", "geolocate", "connectivity")}
    archive = os.path.join(out, "synth", "archive.ndjson")
    with open(archive, "rb") as fh:
        parent = next(r for r in stream_comments(fh)
                      if r.author != DELETED_AUTHOR)
    with open(archive, "a", encoding="utf-8") as fh:
        for i, (author, parent_id) in enumerate([
                (parent.author, "t3_post1"),                # a post
                (parent.author, "t1_nosuchid"),             # unknown id
                (parent.author, f"t1_{parent.comment_id}"),  # self-reply
                ("drifter", f"t1_{parent.comment_id}")]):   # unmapped
            fh.write(json.dumps({"id": f"drop{i}", "author": author,
                                 "subreddit": "general",
                                 "created_utc": 1_451_606_400, "body": "hi",
                                 "parent_id": parent_id}) + "\n")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    for stage in ("ingest", "geolocate", "connectivity"):
        assert main([stage, "--config", cfg, "--out-dir", out]) == 0
    ingest, geolocate, connectivity = (
        manifest_rows(out, stage)
        for stage in ("ingest", "geolocate", "connectivity"))
    assert ingest["replies"] == before["ingest"]["replies"] + 4
    assert geolocate["unmapped"] == before["geolocate"]["unmapped"] + 1 > 0
    authors = {c.author for c in cli._read_records(
        os.path.join(out, "author_subreddits.csv"), SubredditCount)}
    assert geolocate["authors"] + geolocate["unmapped"] == len(authors)
    for key, planted in (("unresolved_parents", 2), ("self_replies", 1),
                         ("skipped", 1)):
        assert connectivity[key] == \
            before["connectivity"][key] + planted > 0, key
    assert connectivity["pair_events"] == \
        before["connectivity"]["pair_events"]
    assert ingest["replies"] == connectivity["pair_events"] + \
        connectivity["unresolved_parents"] + connectivity["skipped"] + \
        connectivity["self_replies"]


def test_created_utc_bound_holds_through_all(outdir, tmp_path):
    # a news comment at the last time below 2**63 runs through every stage;
    # one at a 401-digit time is malformed, where it used to overflow the
    # float of its cascade time
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    before = manifest_rows(out, "ingest")
    archive = os.path.join(out, "synth", "archive.ndjson")
    with open(archive, "rb") as fh:
        news = next(r for r in stream_comments(fh)
                    if extract_urls(r.body) and r.author != DELETED_AUTHOR)
    with open(archive, "a", encoding="utf-8") as fh:
        for comment_id, created in (("late", 2**63 - 1), ("huge", 10**400)):
            fh.write(json.dumps({"id": comment_id, "author": news.author,
                                 "subreddit": news.subreddit,
                                 "created_utc": created,
                                 "body": news.body}) + "\n")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["all", "--config", cfg, "--out-dir", out]) == 0
    after = manifest_rows(out, "ingest")
    assert after["records"] == before["records"] + 1
    assert after["malformed"] == before["malformed"] + 1
    with open(os.path.join(out, "mentions.csv"), encoding="utf-8") as fh:
        assert f"late,{news.author},{2**63 - 1}," in fh.read()


def test_ingest_manifest_counts_urls_without_host(outdir, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    archive = os.path.join(out, "synth", "archive.ndjson")
    with open(archive, "a", encoding="utf-8") as fh:
        for i, url in enumerate(["http:///x", "https://:80/p",
                                 "http://www./a https://planted.example/b"]):
            fh.write(json.dumps({"id": f"hostless{i}", "author": "planter",
                                 "subreddit": "general",
                                 "created_utc": 1_451_606_400,
                                 "body": f"see {url}"}) + "\n")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["ingest", "--config", cfg, "--out-dir", out]) == 0
    rows = json.loads(open(os.path.join(
        out, "manifests", "ingest.json")).read())["rows"]
    with open(archive, "rb") as fh:
        extracted = sum(len(extract_urls(r.body)) for r in stream_comments(fh))
    assert rows["urls_without_host"] == 3
    assert extracted == rows["mentions"] + rows["urls_without_host"]


@pytest.mark.parametrize("dropped", [None, "satire"])
def test_classify_manifest_accounts_for_every_mention(outdir, tmp_path,
                                                      dropped):
    # with a label's catalog emptied to its comment line, its mentions
    # match nothing
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    if dropped:
        path = os.path.join(out, "synth", f"catalog_{dropped}.txt")
        with open(path, encoding="utf-8") as fh:
            comment = fh.readline()
        assert comment.startswith("#")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(comment)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["classify", "--config", cfg, "--out-dir", out]) == 0
    rows = json.loads(open(os.path.join(
        out, "manifests", "classify.json")).read())["rows"]
    ledger = json.loads(open(os.path.join(
        out, "synth", "ledger.json")).read())
    assert rows["mentions"] == ledger["url_mention_total"]
    assert rows["unmatched"] == \
        (sum(ledger["news_tallies"][dropped].values()) if dropped else 0)
    assert rows["mentions"] == rows["news_comments"] + rows["unmatched"]


def test_geolocate_manifest_accounts_for_every_author(outdir):
    rows = json.loads(open(os.path.join(
        outdir, "manifests", "geolocate.json")).read())["rows"]
    ledger = json.loads(open(os.path.join(
        outdir, "synth", "ledger.json")).read())
    authors = {c.author for c in cli._read_records(
        os.path.join(outdir, "author_subreddits.csv"), SubredditCount)}
    assert rows["assigned"] + rows["tied"] == rows["authors"]
    assert rows["authors"] + rows["unmapped"] == len(authors)
    assert rows["tied"] == \
        sum(state is None for state in ledger["assignments"].values())


def test_contagion_reads_only_the_first_exposures(outdir, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    os.remove(os.path.join(out, "news_comments.csv"))
    os.remove(os.path.join(out, "user_locations.csv"))
    # min_states 2 takes every row of first_exposures.csv
    cfg = write_config(tmp_path, dict(PIPELINE_CONFIG, min_states=2))
    assert main(["contagion", "--config", cfg, "--out-dir", out]) == 0
    manifest = json.loads(open(os.path.join(
        out, "manifests", "contagion.json")).read())
    assert [os.path.basename(p) for p in manifest["inputs"]] == \
        ["first_exposures.csv", "attributes.csv"]
    diffusion_rows = json.loads(open(os.path.join(
        out, "manifests", "diffusion.json")).read())["rows"]
    assert diffusion_rows["first_exposures"] > 0
    assert sum(manifest["rows"].values()) == \
        diffusion_rows["first_exposures"]


@pytest.mark.parametrize("reputable,differential", [("TX CA", True),
                                                     ("TX NY", False)])
def test_pagerank_table_leaves_unscored_cells_empty(tmp_path, reputable,
                                                    differential):
    from newsgeo.contagion import infer_state_network, pagerank
    # satire has no graph; the differential needs lowcred and reputable
    # graphs over the same states
    exposures = [FirstExposure("u1", "fake", "CA TX NY"),
                 FirstExposure("u2", "lowcred", "CA TX"),
                 FirstExposure("u3", "reputable", reputable)]
    out = run_contagion(tmp_path, exposures,
                        "state,republican\nCA,0.3\nNY,0.4\nTX,0.5\n")
    with open(out / "pagerank.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["state", "fake", "lowcred", "satire", "reputable",
                      "reputable_minus_lowcred"]
    scores = {label: pagerank(infer_state_network(exposures, label, 2,
                                                  DEFAULTS.rule),
                              DEFAULTS.damping)
              for label in ("fake", "lowcred", "reputable")}
    reputable_states = set(reputable.split())
    assert [row[0] for row in rows] == ["CA", "NY", "TX"]
    for state, fake, lowcred, satire, rep, diff in rows:
        assert fake == f"{scores['fake'][state]:.12g}"
        assert lowcred == (f"{scores['lowcred'][state]:.12g}"
                           if state in ("CA", "TX") else "")
        assert satire == ""
        assert rep == (f"{scores['reputable'][state]:.12g}"
                       if state in reputable_states else "")
        assert (diff != "") is (differential and state != "NY")
        if diff:
            assert float(diff) == pytest.approx(float(rep) - float(lowcred),
                                                abs=1e-11)
    # both score columns sum to 1 over the same states
    assert sum(float(row[-1]) for row in rows if row[-1]) == \
        pytest.approx(0.0, abs=1e-11)


def test_contagion_summary_reports_assortativity_where_defined(tmp_path):
    # under the default chain rule, fake has the two edges CA->TX and
    # TX->NY, satire one edge
    exposures = [FirstExposure("u1", "fake", "CA TX NY"),
                 FirstExposure("u2", "satire", "CA TX")]
    # TX lacks political; population is the same in every state
    out = run_contagion(
        tmp_path, exposures,
        "state,republican,political,population\n"
        "CA,0.3,0.1,5\nNY,0.4,0.2,5\nTX,0.5,,5\n")
    with open(out / "contagion_summary.json") as fh:
        summary = json.load(fh)
    assert summary["fake"]["edges"] == 2
    assortativity = summary["fake"]["assortativity"]
    assert sorted(assortativity) == ["population", "republican"]
    assert assortativity["population"] is None
    # republican rises from 0.3 to 0.5 on the first edge and falls from 0.5
    # to 0.4 on the second: two points on a falling line
    assert assortativity["republican"] == pytest.approx(-1.0)
    assert summary["satire"]["edges"] == 1
    assert "assortativity" not in summary["satire"]


def test_correlation_of_too_few_states_is_unavailable(tmp_path):
    # openness and gdp share two states: their r and p are undefined, so
    # the pair is unavailable and not marked insignificant
    out = tmp_path / "out"
    (out / "synth").mkdir(parents=True)
    (out / "synth" / "attributes.csv").write_text(
        "state,openness,gdp,population\nAL,1,2,10\nAK,2,1,20\n"
        "AZ,3,,30\nAR,5,,25\n")
    assert main(["attributes", "--out-dir", str(out)]) == 0
    with open(out / "correlations.csv", newline="") as fh:
        rows = {(row["var_a"], row["var_b"]): row
                for row in csv.DictReader(fh)}
    for pair in (("openness", "gdp"), ("gdp", "population")):
        assert rows[pair] == dict(var_a=pair[0], var_b=pair[1], r="nan",
                                  p="nan", insignificant="0", available="0")
    defined = rows["openness", "population"]
    assert defined["available"] == "1"
    assert defined["insignificant"] == \
        str(int(float(defined["p"]) >= DEFAULTS.alpha))


def test_mid_file_header_row_is_data(outdir, tmp_path, caplog):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, "synth", "populations.csv")
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert lines[0].startswith(b"state,")
    lines.insert(3, b"state,population\r\n")
    with open(path, "wb") as fh:
        fh.writelines(lines)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["scale", "--config", cfg, "--out-dir", out]) == 2
    assert f"scale: ConfigurationError: {path}: line 4: 'state' is " \
        "not one of the 50 states" in caplog.text


def test_repeated_attribute_column_exits_2(outdir, tmp_path, caplog):
    # a second gdp column would replace the first's values, and correlate
    # gdp with itself; main returns the exit code, so no exception escapes
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, "synth", "attributes.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    gdp = rows[0].index("gdp")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(row + [row[gdp]] for row in rows)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    for stage in ("attributes", "regress", "contagion"):
        caplog.clear()
        assert main([stage, "--config", cfg, "--out-dir", out]) == 2, stage
        assert f"{stage}: ConfigurationError: {path}: line 1: repeated " \
            "attribute column 'gdp'" in caplog.text


@pytest.mark.parametrize("column,value,message", [
    ("swing_state", "2", "swing_state must be 0 or 1, got 2.0"),
    ("no_highschool", "101", "no_highschool=101.0 outside [0, 100]"),
    ("population", "0", "population must be positive"),
], ids=["swing_state", "percent", "population"])
def test_bad_attribute_value_names_its_line(outdir, tmp_path, caplog, column,
                                            value, message):
    # the error names the file and line of the row, not its state alone
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, "synth", "attributes.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    for stage in ("attributes", "regress", "contagion"):
        caplog.clear()
        assert main([stage, "--config", cfg, "--out-dir", out]) == 4, stage
        assert f"{stage}: DataIntegrityError: {path}: line 2: {message}" \
            in caplog.text
        assert "Traceback" not in caplog.text


def test_populations_led_by_a_byte_order_mark(tmp_path):
    # spreadsheet programs lead a CSV export with one
    path = tmp_path / "populations.csv"
    path.write_bytes(b"\xef\xbb\xbfstate,population\r\nAL,100\r\nWY,7\r\n")
    assert cli._read_populations(str(path)) == {"AL": 100, "WY": 7}


def run_cli_process(*args):
    """Run the CLI as `python -m newsgeo.cli`, as the README runs stages, so
    that a traceback and the logger name show."""
    return subprocess.run(
        [sys.executable, "-m", "newsgeo.cli", *args], capture_output=True,
        text=True, env=dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))


def test_module_run_logs_under_the_package_logger(tmp_path):
    proc = run_cli_process("ingest", "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("ERROR newsgeo.cli: ingest: "
                                  "DependencyError: "), proc.stderr


def test_non_utf8_catalog_exits_5(outdir, tmp_path, caplog):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, "synth", "catalog_fake.txt")
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["classify", "--config", cfg, "--out-dir", out]) == 5
    assert f"FormatError: {path} is not UTF-8" in caplog.text


def test_missing_centroid_exits_2(outdir, tmp_path, caplog):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    with open(os.path.join(out, "user_locations.csv"), newline="") as fh:
        state = min(row["state"] for row in csv.DictReader(fh) if row["state"])
    path = os.path.join(out, "synth", "centroids.csv")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith(f"{state},")]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["connectivity", "--config", cfg, "--out-dir", out]) == 2
    assert f"ConfigurationError: no centroid for state {state!r}" in caplog.text


def test_missing_population_exits_2(outdir, tmp_path, caplog):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    with open(os.path.join(out, "user_locations.csv"), newline="") as fh:
        state = max(row["state"] for row in csv.DictReader(fh) if row["state"])
    path = os.path.join(out, "synth", "populations.csv")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith(f"{state},")]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["scale", "--config", cfg, "--out-dir", out]) == 2
    assert f"scale: ConfigurationError: no population for state {state!r}" \
        in caplog.text


def test_two_states_are_located_but_not_fitted(tmp_path, caplog):
    # a log-log fit needs three states; assigning users, and the stages
    # that read only the assignments, do not
    synth = dict(PIPELINE_CONFIG["synth"], n_states=2,
                 cascade_states_range=[2, 2])
    cfg = write_config(tmp_path, dict(PIPELINE_CONFIG, synth=synth))
    out = str(tmp_path / "out")
    for stage in ("synth", "ingest", "classify", "geolocate", "diffusion",
                  "connectivity"):
        assert main([stage, "--config", cfg, "--out-dir", out]) == 0, stage
    assert os.path.exists(os.path.join(out, "user_locations.csv"))
    caplog.clear()
    assert main(["scale", "--config", cfg, "--out-dir", out]) == 1
    assert "scale: InsufficientDataError" in caplog.text


def test_repeated_comment_line_is_counted_once(outdir, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    before = manifest_rows(out, "ingest")
    archive = os.path.join(out, "synth", "archive.ndjson")
    with open(archive, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines)
             for rec in stream_comments([line])
             if extract_urls(rec.body) and rec.author != DELETED_AUTHOR)
    lines.insert(i, lines[i])
    with open(archive, "wb") as fh:
        fh.writelines(lines)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["all", "--config", cfg, "--out-dir", out]) == 0

    def analysed(root):
        return {rel: data for rel, data in artifact_bytes(root).items()
                if rel.split(os.sep)[0] != "synth"}
    assert analysed(out) == analysed(outdir)
    assert manifest_rows(out, "ingest") == \
        dict(before, records=before["records"] + 1, duplicates=1)


# artifact -> a column of integers in it
INT_COLUMN = {"author_subreddits.csv": "comments",
              "mentions.csv": "created_utc",
              "news_comments.csv": "created_utc"}


@pytest.mark.parametrize("artifact,change", [
    (artifact, change)
    for artifact in ("author_subreddits.csv", "replies.csv", "mentions.csv",
                     "news_comments.csv", "user_locations.csv",
                     "first_exposures.csv", "residuals.csv")
    for change in ("short", "long", "not-int", "not-utf8")
    if change != "not-int" or artifact in INT_COLUMN])
def test_bad_codec_row_exits_5(outdir, tmp_path, artifact, change):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, artifact)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    row = rows[-1]
    if change == "short":
        row = row[:-1]
    elif change == "long":
        row = row + ["extra"]
    elif change == "not-int":
        row[header.index(INT_COLUMN[artifact])] = "soon"
    text = io.StringIO()
    csv.writer(text).writerow(row)
    with open(path, "ab") as fh:
        # the last row again, led by a byte that is not UTF-8
        fh.write((b"\xe9" if change == "not-utf8" else b"") +
                 text.getvalue().encode())
    with open(path, "rb") as fh:
        line = len(fh.read().splitlines())
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process(CONSUMERS[artifact][0][0], "--config", cfg,
                           "--out-dir", out)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"FormatError: {path}: line {line}" in proc.stderr
    if change == "not-utf8":
        assert f"FormatError: {path}: line {line} is not UTF-8" \
            in proc.stderr


def rewrite_cell(path, column, row_of, edit):
    """Set `column` of the data row `row_of(rows)` picks to `edit(cell)`;
    returns the line that row is on and the new cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    row = row_of(rows)
    i = header.index(column)
    row[i] = edit(row[i])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return rows.index(row) + 2, row[i]


@pytest.mark.parametrize("label,artifact,column,stage", [
    pytest.param(label, artifact, column, stage,
                 id=label if stage == "scale" else f"{stage}-{label}")
    for artifact, column, stage in [
        ("news_comments.csv", "label", "scale"),
        ("news_comments.csv", "label", "diffusion"),
        ("first_exposures.csv", "label", "contagion"),
        ("residuals.csv", "news_type", "regress")]
    for label in ("adoption", "Fake")])
def test_news_comment_of_no_news_type_exits_5(outdir, tmp_path, caplog,
                                              label, artifact, column, stage):
    # a label is a key of scaling_fits.json, so "adoption" would overwrite
    # the adoption law there
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, artifact)
    line, _ = rewrite_cell(path, column, lambda rows: rows[-1],
                           lambda _: label)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main([stage, "--config", cfg, "--out-dir", out]) == 5
    assert f"{stage}: FormatError: {path}: line {line}: {label!r} is not " \
        "a news type" in caplog.text


def _first_state_to_xx(cell):
    return " ".join(["XX", *cell.split(" ")[1:]])


def _first_state_repeated(cell):
    return f"{cell} {cell.split(' ')[0]}"


# a stage table cell that holds a state or a state order: (artifact, column,
# stage that reads it, edit of the cell, the domain the codec names)
BAD_STATE_CELLS = {
    "scale": ("user_locations.csv", "state", "scale", lambda _: "XX",
              "one of the 50 states"),
    "diffusion": ("user_locations.csv", "state", "diffusion",
                  lambda _: "XX", "one of the 50 states"),
    "connectivity": ("user_locations.csv", "state", "connectivity",
                     lambda _: "XX", "one of the 50 states"),
    "regress": ("residuals.csv", "state", "regress", lambda _: "XX",
                "one of the 50 states"),
    "contagion": ("first_exposures.csv", "states", "contagion",
                  _first_state_to_xx, "an order of distinct states"),
    "contagion-repeat": ("first_exposures.csv", "states", "contagion",
                         _first_state_repeated, "an order of distinct states"),
}


@pytest.mark.parametrize("case", BAD_STATE_CELLS)
def test_located_user_of_no_state_exits_5(outdir, tmp_path, case):
    # a state cell of any stage table, not only a located user's
    artifact, column, stage, edit, domain = BAD_STATE_CELLS[case]
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, artifact)
    # a row with no empty cell: in user_locations.csv, a located user
    line, cell = rewrite_cell(path, column,
                              lambda rows: next(row for row in rows
                                                if all(row)), edit)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process(stage, "--config", cfg, "--out-dir", out)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{stage}: FormatError: {path}: line {line}: {cell!r} is not " \
        f"{domain}" in proc.stderr


# state table, appended row -> the stage that reads it, exit code, error
HOSTILE_TABLE_ROWS = [
    ("synth/populations.csv", b"AL,lots", "scale", 5, "FormatError"),
    ("synth/populations.csv", b"AL", "scale", 5, "FormatError"),
    ("synth/populations.csv", b"DC,700000", "scale", 2,
     "ConfigurationError"),
    ("synth/populations.csv", b"WY,0", "scale", 2, "ConfigurationError"),
    ("synth/centroids.csv", b"AL", "connectivity", 5, "FormatError"),
    ("synth/centroids.csv", b"AL,north,5", "connectivity", 5, "FormatError"),
    ("synth/centroids.csv", b"WY,nan,-95", "connectivity", 5, "FormatError"),
    ("synth/centroids.csv", b"WY,inf,-95", "connectivity", 5, "FormatError"),
    ("synth/centroids.csv", b"WY,245.3,-95", "connectivity", 5,
     "FormatError"),
    ("synth/centroids.csv", b"WY,45,-195", "connectivity", 5, "FormatError"),
    ("synth/attributes.csv", b"WY,lots", "attributes", 5, "FormatError"),
    ("synth/attributes.csv", b"WY,nan" + b",0" * 13, "attributes", 5,
     "FormatError"),
    ("residuals.csv", b"fake,AL,notanumber", "regress", 5, "FormatError"),
    # residuals.csv is a stage table, read as strictly as the others
    ("residuals.csv", b"", "regress", 5, "FormatError"),
    ("residuals.csv", b"# a note", "regress", 5, "FormatError"),
    ("residuals.csv", b"fake, AL,0.5", "regress", 5, "FormatError"),
    ("synth/subreddit_states.csv", b"caf\xe9,AL", "geolocate", 5,
     "FormatError"),
    ("synth/subreddit_states.csv", b"texasstate,TX,extra", "geolocate", 5,
     "FormatError"),
    ("synth/subreddit_states.csv", b"dcstate,DC", "geolocate", 2,
     "ConfigurationError"),
    ("synth/attributes.csv", b"WY,1.0", "attributes", 5, "FormatError"),
    ("synth/populations.csv", b"AL,1", "scale", 4, "DataIntegrityError"),
    ("synth/centroids.csv", b"AL,32.8,-86.8", "connectivity", 4,
     "DataIntegrityError"),
]


@pytest.mark.parametrize("table,row,stage,code,error", HOSTILE_TABLE_ROWS,
                         ids=[f"{t.split('/')[-1]}:{r.decode('latin-1')}"
                              for t, r, *_ in HOSTILE_TABLE_ROWS])
def test_bad_table_row_exits_with_its_code(outdir, tmp_path, table, row,
                                           stage, code, error):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, table)
    with open(path, "rb") as fh:
        data = fh.read()
    assert b"\nWY," not in data   # so the attributes row is a new state
    with open(path, "wb") as fh:
        fh.write(data + row + b"\r\n")
    line = len(data.splitlines()) + 1
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process(stage, "--config", cfg, "--out-dir", out)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"ERROR newsgeo.cli: {stage}: {error}: {path}: line {line}" \
        in proc.stderr


# keyed stage table -> (the stage that reads it, its first data row with
# only the cells outside the key changed)
REPEATED_KEY_ROWS = {
    "user_locations.csv": ("scale", lambda author, state:
                           [author, "AL" if state == "WY" else "WY"]),
    "author_subreddits.csv": ("geolocate", lambda author, subreddit, _:
                              [author, subreddit, "1"]),
    "residuals.csv": ("regress", lambda news_type, state, _:
                      [news_type, state, "5"]),
    "first_exposures.csv": ("contagion", lambda *row: list(row)),
}


@pytest.mark.parametrize("table", REPEATED_KEY_ROWS)
def test_repeated_key_exits_4(outdir, tmp_path, table):
    stage, repeat = REPEATED_KEY_ROWS[table]
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, table)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(repeat(*rows[1]))
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process(stage, "--config", cfg, "--out-dir", out)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{stage}: DataIntegrityError: {path}: line {len(rows) + 1}: " \
        "repeated " in proc.stderr


@pytest.mark.parametrize("table,stage", [
    ("synth/populations.csv", "scale"),
    ("synth/attributes.csv", "attributes"),
    ("mentions.csv", "classify"),
])
def test_oversized_field_exits_5(outdir, tmp_path, table, stage):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, table)
    with open(path, "rb") as fh:
        line = len(fh.read().splitlines()) + 1
    with open(path, "ab") as fh:
        fh.write(b"AL," + b"x" * 200_000 + b"\r\n")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process(stage, "--config", cfg, "--out-dir", out)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"ERROR newsgeo.cli: {stage}: FormatError: {path}: line {line}: " \
        "field larger than field limit" in proc.stderr


def test_utf8_encoded_surrogate_line_is_malformed(outdir, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    with open(os.path.join(out, "manifests", "ingest.json")) as fh:
        before = json.load(fh)["rows"]
    with open(os.path.join(out, "synth", "archive.ndjson"), "ab") as fh:
        fh.write(b'{"author":"u_\xed\xa0\x80x","body":"hi",'
                 b'"created_utc":1451607778,"id":"zz1",'
                 b'"subreddit":"newslinks"}\n')
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process("ingest", "--config", cfg, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(out, "manifests", "ingest.json")) as fh:
        after = json.load(fh)["rows"]
    assert after == dict(before, malformed=before["malformed"] + 1)


def test_null_author_line_is_malformed(outdir, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    with open(os.path.join(out, "manifests", "ingest.json")) as fh:
        before = json.load(fh)["rows"]
    with open(os.path.join(out, "synth", "archive.ndjson"), "a") as fh:
        fh.write(json.dumps({"id": "zz1", "author": None, "body": "hi",
                             "subreddit": "newslinks",
                             "created_utc": 1451607778}) + "\n")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["ingest", "--config", cfg, "--out-dir", out]) == 0
    with open(os.path.join(out, "manifests", "ingest.json")) as fh:
        after = json.load(fh)["rows"]
    assert after == dict(before, malformed=before["malformed"] + 1)
    with open(os.path.join(out, "author_subreddits.csv"), newline="") as fh:
        assert not any("None" in row for row in csv.reader(fh))


def test_duplicate_id_of_another_author_exits_4(outdir, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    with open(os.path.join(out, "manifests", "ingest.json")) as fh:
        before = json.load(fh)["rows"]
    archive = os.path.join(out, "synth", "archive.ndjson")
    with open(archive, "rb") as fh:
        first = next(stream_comments(fh))
    with open(archive, "a") as fh:
        fh.write(json.dumps({"id": first.comment_id, "author": "impostor",
                             "body": "hi", "subreddit": "newslinks",
                             "created_utc": 1451607778}) + "\n")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process("ingest", "--config", cfg, "--out-dir", out)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"ingest: DataIntegrityError: comment id {first.comment_id!r}" \
        in proc.stderr
    # a failed stage writes no manifest: the line counts as a record, not
    # as malformed
    ledger = StreamLedger()
    with open(archive, "rb") as fh:
        assert sum(1 for _ in stream_comments(fh, ledger=ledger)) == \
            before["records"] + 1
    assert ledger.malformed == before["malformed"]


# commas, quotes, line breaks and non-ASCII text must survive the CSV codec
_cell = st.text(st.sampled_from(',"\r\n x\u00e9\u4e2d')) | \
    st.text(st.characters(blacklist_categories=("Cs",)))


_state = st.sampled_from(STATE_CODES)
_label = st.sampled_from(LABELS)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(Reply, author=_cell, subreddit=_cell,
                          parent_id=st.just("t1_x") | _cell,
                          parent_author=st.none() | _cell.filter(bool))),
       # a keyed table holds each key once
       st.lists(st.builds(Residual, news_type=_label, state=_state,
                          residual=st.floats(allow_nan=False,
                                             allow_infinity=False)),
                unique_by=lambda r: (r.news_type, r.state)),
       st.lists(st.builds(FirstExposure, url=_cell, label=_label,
                          states=st.lists(_state, min_size=1, unique=True)
                          .map(" ".join)),
                unique_by=lambda e: e.url))
def test_comment_rows_round_trip(replies, residuals, exposures):
    # a float is written as its `.12g` text, and so reads back rounded
    rounded = [dataclasses.replace(r, residual=float(f"{r.residual:.12g}"))
               for r in residuals]
    with tempfile.TemporaryDirectory() as tmp:
        run = cli.Run(tmp, RunConfig())
        for name, cls, records, expected in [
                ("replies.csv", Reply, replies, replies),
                ("residuals.csv", Residual, residuals, rounded),
                ("first_exposures.csv", FirstExposure, exposures, exposures)]:
            assert run.write_records(name, cls, records) == len(records)
            path = os.path.join(tmp, name)
            assert list(cli._read_records(path, cls)) == expected, name


def test_residuals_table_needs_its_header(outdir, tmp_path, caplog):
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    path = os.path.join(out, "residuals.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["news_type", "state", "residual"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["regress", "--config", cfg, "--out-dir", out]) == 5
    assert f"regress: FormatError: {path}: header {rows[0]} does not match " \
        "the Residual fields" in caplog.text


@pytest.fixture(scope="module")
def table_io(tmp_path_factory):
    """`all` on PIPELINE_CONFIG, noting each record class a stage writes
    with `Run.write_records` and each path `states.read_table` opens:
    (output directory, classes, paths)."""
    tmp = tmp_path_factory.mktemp("table_io")
    cfg = write_config(tmp, PIPELINE_CONFIG)
    out = str(tmp / "out")
    assert main(["synth", "--config", cfg, "--out-dir", out]) == 0
    classes, paths = set(), []
    write_records, read_table = cli.Run.write_records, states.read_table

    def noting_write(run, name, cls, records):
        classes.add(cls)
        return write_records(run, name, cls, records)

    def noting_read(path, columns):
        paths.append(path)
        return read_table(path, columns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.Run, "write_records", noting_write)
        # every module that imported the function holds it under its name
        for module in list(sys.modules.values()):
            if module.__name__.startswith("newsgeo") and \
                    getattr(module, "read_table", None) is read_table:
                mp.setattr(module, "read_table", noting_read)
        assert main(["all", "--config", cfg, "--out-dir", out]) == 0
    return out, classes, paths


# the stage tables where a legitimate row can repeat another's cells: a
# comment may link one URL twice, or reply twice to one parent
KEYLESS_RECORDS = {"UrlMention", "Reply", "NewsComment"}


def test_every_record_field_has_a_cell_rule(table_io):
    _, classes, _ = table_io
    assert {cls.__name__ for cls in classes} >= {
        "UrlMention", "SubredditCount", "Reply", "NewsComment",
        "UserLocation", "Residual", "FirstExposure"}
    for cls in classes:
        # every stage table is declared in the codec module
        assert cls.__module__ == "newsgeo.states", cls.__name__
        # a record declares the fields no two of its rows share, or is
        # keyless
        if cls.__name__ in KEYLESS_RECORDS:
            assert not hasattr(cls, "KEY"), cls.__name__
        else:
            assert cls.KEY and set(cls.KEY) <= \
                {f.name for f in dataclasses.fields(cls)}, cls.__name__
        for f in dataclasses.fields(cls):
            # an annotation outside the table has no rule for its cells
            assert f.type == "str" or f.type in states.CELL_RULES, \
                (cls.__name__, f.name, f.type)
            if f.name in ("state", "states", "label", "news_type"):
                assert f.type in states.CELL_RULES, (cls.__name__, f.name)
                assert states.CELL_RULES[f.type][1] is not None, \
                    (cls.__name__, f.name)


def test_no_stage_artifact_is_read_as_a_state_table(table_io):
    out, _, paths = table_io
    # the subreddit map (twice), the centroids and the populations
    assert len(paths) == 4
    for path in paths:
        assert os.path.relpath(path, out) not in cli.PRODUCERS, path


def test_deleted_author_is_no_reached_author(tmp_path, catalog):
    # u1 is posted by alice and by [deleted], u2 by [deleted] alone. Ingest
    # writes [deleted] as an empty author, which the stages after it read
    # back as no author: u1 reaches one author, and u2 none, so it leaves
    # the authors denominator as an untagged URL leaves the states one
    from newsgeo import corpus_ingest, diffusion, news_catalog
    records = [
        make_record("c1", author="alice", created_utc=100,
                    body="https://fakery.com/u1"),
        make_record("c2", author=DELETED_AUTHOR, created_utc=200,
                    body="https://fakery.com/u1"),
        make_record("c3", author=DELETED_AUTHOR, created_utc=300,
                    body="https://fakery.com/u2")]
    run = cli.Run(str(tmp_path), RunConfig())
    run.write_records("mentions.csv", UrlMention,
                      corpus_ingest.iter_url_mentions(records))
    tallies = {}
    run.write_records("news_comments.csv", NewsComment,
                      news_catalog.classify_mentions(
                          cli._read_records(str(tmp_path / "mentions.csv"),
                                            UrlMention),
                          catalog, tallies))
    for name in ("mentions.csv", "news_comments.csv"):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            assert [row[1] for row in csv.reader(fh)] == \
                ["author", "alice", "", ""], name
    assert tallies["fake"].counts()["unique_users"] == 1
    timelines = diffusion.build_url_timelines(
        cli._read_records(str(tmp_path / "news_comments.csv"),
                          NewsComment),
        {"alice": "AL"})
    for unit in diffusion.UNITS:
        walked = diffusion.walk(timelines.values(), unit)
        assert walked.reaches == {"fake": [1]}, unit
        # and so no cascade time, which is read from the spreads alone
        assert walked.spreads == [], unit


@pytest.mark.parametrize("old,new", [
    (b'"body":"', b'"body":"\xff\xfe'),
    (b'"author":"', b'"author":"\\ud800'),
], ids=["invalid-utf8", "lone-surrogate"])
def test_invalid_utf8_line_is_counted_not_fatal(tmp_path, old, new):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["synth", "--config", cfg, "--out-dir", out]) == 0
    manifest = os.path.join(out, "manifests", "ingest.json")
    assert main(["ingest", "--config", cfg, "--out-dir", out]) == 0
    before = json.loads(open(manifest).read())["rows"]

    archive = os.path.join(out, "synth", "archive.ndjson")
    with open(archive, "rb") as fh:
        lines = fh.readlines()
    # a line with a URL, so a bad author would reach mentions.csv
    target = next(i for i, line in enumerate(lines) if b"http" in line)
    lines[target] = lines[target].replace(old, new, 1)
    with open(archive, "wb") as fh:
        fh.writelines(lines)
    assert main(["ingest", "--config", cfg, "--out-dir", out]) == 0
    after = json.loads(open(manifest).read())["rows"]
    assert after["malformed"] == before["malformed"] + 1
    assert after["records"] == before["records"] - 1


class TestParameterPropagation:
    def test_min_states_reaches_contagion(self, outdir, tmp_path):
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        strict = write_config(tmp_path, dict(PIPELINE_CONFIG, min_states=8))
        assert main(["contagion", "--config", strict, "--out-dir", out]) == 0

        def urls(root):
            summary = json.loads(open(os.path.join(
                root, "contagion_summary.json")).read())
            return {lb: summary[lb]["urls"] for lb in summary}
        base, strict_urls = urls(outdir), urls(out)
        assert all(strict_urls[lb] <= base[lb] for lb in base)
        assert strict_urls != base

    def test_config_seed_is_the_synth_seed(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out, seed in ((out_a, 1), (out_b, 2)):
            cfg = write_config(tmp_path, {"seed": seed,
                                          "synth": {"n_states": 5}})
            assert main(["synth", "--config", cfg, "--out-dir", out]) == 0
        # no flag sets it beside the config
        with pytest.raises(SystemExit):
            main(["synth", "--config", cfg, "--out-dir", out_a,
                  "--seed", "1"])
        a = open(os.path.join(out_a, "synth", "archive.ndjson"), "rb").read()
        b = open(os.path.join(out_b, "synth", "archive.ndjson"), "rb").read()
        assert a != b
        for out, seed in ((out_a, 1), (out_b, 2)):
            with open(os.path.join(out, "manifests", "synth.json")) as fh:
                assert json.load(fh)["parameters"]["seed"] == seed


def test_peak_rss_falls_back_to_getrusage(monkeypatch):
    # where /proc is absent the peak is ru_maxrss, in kB on Linux
    import resource

    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)
    with_proc = cli._peak_rss_mb()
    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    peak = cli._peak_rss_mb()
    assert peak == round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)
    assert peak == pytest.approx(with_proc, rel=0.01)
