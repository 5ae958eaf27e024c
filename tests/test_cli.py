import csv
import dataclasses
import glob
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from newsgeo import cli, errors
from newsgeo.cli import STAGES, main
from newsgeo.config import RunConfig, config_from_dict, config_load
from newsgeo.corpus_ingest import Comment, extract_urls, stream_comments
from newsgeo.errors import ConfigurationError, NewsgeoError

from conftest import artifact_bytes


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
        assert cfg.residual_intercept is True
        assert cfg.cascade_ks == [2, 3, 5]

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert config_load(str(path)) == RunConfig()

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="dampnig"):
            config_from_dict({"dampnig": 0.9})

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
        ("residual_intercept", "no"),
        ("seed", True),
        ("synth", []),
    ])
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({key: value})


def test_every_config_field_is_read_by_the_cli():
    # a key no stage reads is a dead knob: wire it up or delete it
    source = inspect.getsource(cli)
    read = set(re.findall(r"\bcfg\.(\w+)\b(?!\s*=[^=])", source))
    if "cfg.catalog_files()" in source:
        read |= {f.name for f in dataclasses.fields(RunConfig)
                 if f.name.startswith("catalog_")}
    unread = {f.name for f in dataclasses.fields(RunConfig)} - read
    assert not unread, f"config keys never read by a stage: {sorted(unread)}"


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
        b'{"synth": {"n_states": "50"}}', b'{"seed": ', b'{"rule": "\xff"}'])
    def test_bad_config_type_or_json_exits_2(self, tmp_path, caplog, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["synth", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "ConfigurationError" in caplog.text
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
    "AlignmentError": 1,
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
    monkeypatch.setitem(cli.STAGE_FUNCS, "report", fail)
    assert main(["report", "--out-dir", str(tmp_path)]) == \
        DOCUMENTED_EXIT_CODES[klass.__name__]


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
        for stage in STAGES:
            path = os.path.join(outdir, "manifests", f"{stage}.json")
            assert os.path.exists(path)
            manifest = json.loads(open(path).read())
            assert manifest["stage"] == stage
            assert manifest["wall_time_s"] >= 0

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
            {"fake", "lowcred", "satire", "reputable"}
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

        from newsgeo.scaling_laws import fit_scaling

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


# artifact -> (a stage that cannot run without it, the stage that writes it)
CONSUMERS = {
    "synth/archive.ndjson": ("ingest", "synth"),
    "synth/subreddit_states.csv": ("geolocate", "synth"),
    "synth/centroids.csv": ("connectivity", "synth"),
    "synth/attributes.csv": ("attributes", "synth"),
    "synth/catalog_*.txt": ("classify", "synth"),
    "comments.csv": ("geolocate", "ingest"),
    "mentions.csv": ("classify", "ingest"),
    "news_comments.csv": ("diffusion", "classify"),
    "tallies.csv": ("report", "classify"),
    "user_locations.csv": ("scale", "geolocate"),
    "geolocate_summary.json": ("report", "geolocate"),
    "correlations.csv": ("report", "attributes"),
    "state_type_counts.csv": ("report", "scale"),
    "residuals.csv": ("regress", "scale"),
    "scaling_fits.json": ("report", "scale"),
    "regression_suite.csv": ("report", "regress"),
    "reach.csv": ("report", "diffusion"),
    "cascade_times.csv": ("report", "diffusion"),
    "first_exposures.csv": ("contagion", "diffusion"),
    "connectivity.csv": ("report", "connectivity"),
    "contagion_summary.json": ("report", "contagion"),
    "pagerank.csv": ("report", "contagion"),
}


class TestStageInputs:
    def test_every_stage_artifact_has_a_consumer_case(self):
        assert set(cli.PRODUCERS) <= set(CONSUMERS)
        for artifact, stage in cli.PRODUCERS.items():
            assert CONSUMERS[artifact][1] == stage

    @pytest.mark.parametrize("artifact", sorted(CONSUMERS))
    def test_missing_artifact_names_its_producer(self, outdir, tmp_path,
                                                 caplog, artifact):
        consumer, producer = CONSUMERS[artifact]
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        removed = glob.glob(os.path.join(out, artifact))
        assert removed
        for path in removed:
            os.remove(path)
        cfg = write_config(tmp_path, PIPELINE_CONFIG)
        assert main([consumer, "--config", cfg, "--out-dir", out]) == 3
        assert f"run the {producer!r} stage first" in caplog.text

    @pytest.mark.parametrize("key", ["archive", "catalog_fake",
                                     "subreddit_map", "populations"])
    def test_missing_configured_input_exits_3(self, outdir, tmp_path, caplog,
                                              key):
        stage = {"archive": "ingest", "catalog_fake": "classify",
                 "subreddit_map": "geolocate",
                 "populations": "geolocate"}[key]
        out = str(tmp_path / "out")
        shutil.copytree(outdir, out)
        missing = str(tmp_path / "no.txt")
        cfg = write_config(tmp_path, dict(PIPELINE_CONFIG, **{key: missing}))
        assert main([stage, "--config", cfg, "--out-dir", out]) == 3
        assert f"configured input {missing!r} does not exist" in caplog.text
        assert "stage first" not in caplog.text

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

    @pytest.mark.parametrize("stage,optional", [
        ("geolocate", "populations.csv"),
        ("connectivity", "subreddit_states.csv"),
        ("contagion", "attributes.csv"),
    ])
    def test_manifest_lists_optional_inputs(self, outdir, stage, optional):
        manifest = json.loads(open(os.path.join(
            outdir, "manifests", f"{stage}.json")).read())
        assert os.path.join(outdir, "synth", optional) in manifest["inputs"]
        assert all(os.path.exists(p) for p in manifest["inputs"])

    def test_connectivity_manifest_counts_every_reply(self, outdir):
        rows = json.loads(open(os.path.join(
            outdir, "manifests", "connectivity.json")).read())["rows"]
        with open(os.path.join(outdir, "synth", "archive.ndjson"), "rb") as fh:
            replies = sum(1 for r in stream_comments(fh)
                          if r.parent_id is not None and not r.is_deleted_author)
        assert replies == rows["pair_events"] + rows["unresolved_parents"] + \
            rows["skipped"] + rows["self_replies"]


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
    # with a label's catalog gone, its mentions match nothing
    out = str(tmp_path / "out")
    shutil.copytree(outdir, out)
    if dropped:
        os.remove(os.path.join(out, "synth", f"catalog_{dropped}.txt"))
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
        os.path.join(outdir, "comments.csv"), Comment)
        if not c.is_deleted_author}
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
    from newsgeo.diffusion import FirstExposure
    # satire has no graph; the differential needs lowcred and reputable
    # graphs over the same states
    exposures = [FirstExposure("u1", "fake", "CA TX NY"),
                 FirstExposure("u2", "lowcred", "CA TX"),
                 FirstExposure("u3", "reputable", reputable)]
    out = tmp_path / "out"
    out.mkdir()
    with open(out / "first_exposures.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(
            [["url", "label", "states"]] +
            [[e.url, e.label, e.states] for e in exposures])
    cfg = write_config(tmp_path, {"min_states": 2})
    assert main(["contagion", "--config", cfg, "--out-dir", str(out)]) == 0
    with open(out / "pagerank.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["state", "fake", "lowcred", "satire", "reputable",
                      "reputable_minus_lowcred"]
    scores = {label: pagerank(infer_state_network(exposures, label,
                                                  min_states=2))
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
    assert main(["geolocate", "--config", cfg, "--out-dir", out]) == 2
    assert f"geolocate: ConfigurationError: {path}: line 4: 'state' is " \
        "not one of the 50 states" in caplog.text


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


@pytest.mark.parametrize("artifact,change", [
    (artifact, change)
    for artifact in ("comments.csv", "mentions.csv", "news_comments.csv",
                     "user_locations.csv", "first_exposures.csv")
    for change in ("short", "long", "not-int")
    if change != "not-int" or artifact not in ("user_locations.csv",
                                               "first_exposures.csv")])
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
    else:
        row[header.index("created_utc")] = "soon"
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(row)
    with open(path, "rb") as fh:
        line = len(fh.read().splitlines())
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    proc = run_cli_process(CONSUMERS[artifact][0], "--config", cfg,
                           "--out-dir", out)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"FormatError: {path}: line {line}" in proc.stderr


# state table, appended row -> the stage that reads it, exit code, error
HOSTILE_TABLE_ROWS = [
    ("synth/populations.csv", b"AL,lots", "geolocate", 5, "FormatError"),
    ("synth/populations.csv", b"AL", "geolocate", 5, "FormatError"),
    ("synth/populations.csv", b"DC,700000", "geolocate", 2,
     "ConfigurationError"),
    ("synth/centroids.csv", b"AL", "connectivity", 5, "FormatError"),
    ("synth/centroids.csv", b"AL,north,5", "connectivity", 5, "FormatError"),
    ("synth/attributes.csv", b"WY,lots", "attributes", 5, "FormatError"),
    ("residuals.csv", b"fake,AL,notanumber,0", "regress", 5, "FormatError"),
    ("synth/subreddit_states.csv", b"caf\xe9,AL", "geolocate", 5,
     "FormatError"),
    ("synth/subreddit_states.csv", b"texasstate,TX,extra", "geolocate", 5,
     "FormatError"),
    ("synth/subreddit_states.csv", b"dcstate,DC", "geolocate", 2,
     "ConfigurationError"),
    ("synth/attributes.csv", b"WY,1.0", "attributes", 5, "FormatError"),
    ("synth/populations.csv", b"AL,1", "geolocate", 4, "DataIntegrityError"),
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


@pytest.mark.parametrize("table,stage", [
    ("synth/populations.csv", "geolocate"),
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


# commas, quotes, line breaks and non-ASCII text must survive the CSV codec
_cell = st.text(st.sampled_from(',"\r\n x\u00e9\u4e2d')) | \
    st.text(st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(Comment, comment_id=_cell, author=_cell,
                          subreddit=_cell,
                          created_utc=st.integers(1, 2**40),
                          parent_id=st.none() | st.just("t1_x"))))
def test_comment_rows_round_trip(comments):
    with tempfile.TemporaryDirectory() as tmp:
        run = cli.Run(tmp)
        assert run.write_records("comments.csv", Comment, comments) == \
            len(comments)
        path = os.path.join(tmp, "comments.csv")
        assert list(cli._read_records(path, Comment)) == comments


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

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        cfg = write_config(tmp_path, {"synth": {"n_states": 5}})
        assert main(["synth", "--config", cfg, "--out-dir", out_a,
                     "--seed", "1"]) == 0
        assert main(["synth", "--config", cfg, "--out-dir", out_b,
                     "--seed", "2"]) == 0
        a = open(os.path.join(out_a, "synth", "archive.ndjson"), "rb").read()
        b = open(os.path.join(out_b, "synth", "archive.ndjson"), "rb").read()
        assert a != b
