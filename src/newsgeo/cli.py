"""Pipeline orchestration CLI.

Each subcommand is one stage: it reads its declared inputs, writes its
artifacts under the output directory, and drops a machine-readable manifest.
`all` runs every stage after `synth` in order, in one process.
All cross-stage artifacts are flat CSV/NDJSON so any stage can be inspected
or replaced by hand. Stage outputs are pure functions of (inputs, config,
seed); reruns are byte-identical apart from manifest timestamps.

A stage function resolves and writes files through its `Run` and returns
its manifest parameters and row counts; `_run_stage` times every stage
and writes every manifest, listing each input the stage read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import logging
import operator
import os
import shutil
import sys
import time

from . import config as config_mod
from .errors import (ConfigurationError, DataIntegrityError, DependencyError,
                     FormatError, NewsgeoError)

# a fixed name, so `python -m newsgeo.cli` logs as the console script does
logger = logging.getLogger("newsgeo.cli")

EXIT_CODES = {
    ConfigurationError: 2,
    DependencyError: 3,
    DataIntegrityError: 4,
    FormatError: 5,
}

# artifact a stage requires -> the stage that writes it; everything under
# synth/ is written by the synth stage. Each stage artifact is read by a
# later stage or by `report`, apart from connectivity_meta.json, which only
# the benchmark's output checks read.
PRODUCERS = {
    "comments.csv": "ingest",
    "mentions.csv": "ingest",
    "news_comments.csv": "classify",
    "tallies.csv": "classify",
    "user_locations.csv": "geolocate",
    "geolocate_summary.json": "geolocate",
    "correlations.csv": "attributes",
    "state_type_counts.csv": "scale",
    "residuals.csv": "scale",
    "scaling_fits.json": "scale",
    "regression_suite.csv": "regress",
    "reach.csv": "diffusion",
    "cascade_times.csv": "diffusion",
    "first_exposures.csv": "diffusion",
    "connectivity.csv": "connectivity",
    "contagion_summary.json": "contagion",
    "pagerank.csv": "contagion",
}

# stage artifact -> its name in the report bundle
REPORT_SOURCES = {
    "tallies.csv": "table1.csv",
    "state_type_counts.csv": "scaling_points.csv",
    "correlations.csv": "attribute_correlations.csv",
    "regression_suite.csv": "table3.csv",
    "reach.csv": "fig3a.csv",
    "cascade_times.csv": "fig3b.csv",
    "connectivity.csv": "fig5.csv",
    "contagion_summary.json": "contagion.json",
    "pagerank.csv": "pagerank.csv",
}


class Run:
    """One stage invocation: resolves the inputs it reads, records each one
    for the manifest, and writes outputs under `outdir`."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.inputs = []

    def input(self, name, configured=None, optional=False):
        """Path of input `name`: the configured path if set, else the
        artifact under `outdir`. A missing optional artifact is None; any
        other missing input raises DependencyError."""
        path = configured or os.path.join(self.outdir, name)
        if os.path.exists(path):
            self.inputs.append(path)
            return path
        if configured:
            raise DependencyError(f"configured input {path!r} does not exist")
        if optional:
            return None
        producer = "synth" if name.startswith("synth/") else PRODUCERS[name]
        raise DependencyError(f"missing artifact {path!r}; "
                              f"run the {producer!r} stage first")

    def out(self, name):
        path = os.path.join(self.outdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def write_csv(self, name, header, rows):
        with open(self.out(name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return len(rows)

    @contextlib.contextmanager
    def record_writer(self, name, cls):
        """Open `name` as CSV with one column per field of dataclass `cls`
        in field order (read back by `_read_records`), and yield a function
        that writes one record and returns it."""
        header = [f.name for f in dataclasses.fields(cls)]
        row_of = operator.attrgetter(*header)
        with open(self.out(name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)

            def write(record):
                writer.writerow(row_of(record))
                return record
            yield write

    def write_records(self, name, cls, records):
        """Write dataclass records with `record_writer`; returns the count."""
        with self.record_writer(name, cls) as write:
            return sum(1 for _ in map(write, records))

    def write_json(self, name, doc):
        with open(self.out(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def _read_records(path, cls):
    """Yield the `cls` records of a CSV written by `Run.write_records`: int
    fields parsed, empty `str | None` fields None, the rest strings. A
    wrong header, a row with the wrong number of fields or an int field
    that does not parse, or a row the csv module rejects, raises
    FormatError."""
    columns = dataclasses.fields(cls)
    width = len(columns)
    ints = [i for i, f in enumerate(columns) if f.type in (int, "int")]
    nullable = [i for i, f in enumerate(columns)
                if f.type in (str | None, "str | None")]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != [f.name for f in columns]:
                raise FormatError(f"{path}: header {header} does not match "
                                  f"the {cls.__name__} fields")
            for row in reader:
                if len(row) != width:
                    raise FormatError(f"{path}: line {reader.line_num} has "
                                      f"{len(row)} fields, expected {width}")
                try:
                    for i in ints:
                        row[i] = int(row[i])
                except ValueError:
                    raise FormatError(
                        f"{path}: line {reader.line_num}: "
                        f"{row[i]!r} is not an integer") from None
                for i in nullable:
                    row[i] = row[i] or None
                yield cls(*row)
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") \
                from None


# --------------------------------------------------------------------------
# stages: each takes (cfg, run) and returns (parameters, rows) for its
# manifest
# --------------------------------------------------------------------------

def stage_synth(cfg, run):
    from . import synth
    synth_params = dict(cfg.synth)
    synth_params.setdefault("seed", cfg.seed)
    scfg = synth.SynthConfig.from_dict(synth_params)
    output = synth.generate(scfg)
    paths = synth.write_outputs(output, os.path.join(run.outdir, "synth"))
    return synth._config_as_dict(scfg), {"records": output.ledger["n_records"],
                                         "files": len(paths)}


def stage_ingest(cfg, run):
    from . import corpus_ingest
    # one pass: each parsed comment is written to comments.csv on its way to
    # the URL extractor, so the parsed archive is never held in memory
    ledger = corpus_ingest.StreamLedger()
    with open(run.input("synth/archive.ndjson", cfg.archive), "rb") as fh, \
            run.record_writer("comments.csv",
                              corpus_ingest.Comment) as write_comment:
        records = map(write_comment,
                      corpus_ingest.stream_comments(fh, ledger=ledger))
        n_mentions = run.write_records(
            "mentions.csv", corpus_ingest.UrlMention,
            corpus_ingest.iter_url_mentions(records, ledger=ledger))
    return {}, {"records": ledger.records, "malformed": ledger.malformed,
                "deleted_author": ledger.deleted_author,
                "mentions": n_mentions,
                "urls_without_host": ledger.urls_without_host}


def _load_catalog(cfg, run):
    from . import news_catalog
    files = [(run.input(f"synth/catalog_{label}.txt", path), label)
             for path, label in cfg.catalog_files()]
    if not files:
        files = [(path, label) for label in config_mod.LABELS
                 if (path := run.input(f"synth/catalog_{label}.txt",
                                       optional=True))]
    if not files:
        raise DependencyError(f"no news catalog configured or under "
                              f"{run.outdir!r}/synth; "
                              f"run the 'synth' stage first")
    return news_catalog.load_catalog(files)


def stage_classify(cfg, run):
    from . import corpus_ingest, news_catalog
    mentions_path = run.input("mentions.csv")
    catalog = _load_catalog(cfg, run)
    tallies = {}
    ledger = news_catalog.MatchLedger()
    n_news = run.write_records(
        "news_comments.csv", news_catalog.NewsComment,
        news_catalog.classify_mentions(
            _read_records(mentions_path, corpus_ingest.UrlMention),
            catalog, tallies, ledger=ledger))
    run.write_csv("tallies.csv",
                  ["news_type", "unique_comments", "unique_users",
                   "unique_sites", "unique_urls"],
                  [[label, *tallies.get(label, news_catalog.TypeTally())
                    .counts().values()] for label in config_mod.LABELS])
    return ({"catalog_counts": catalog.label_counts()},
            {"mentions": ledger.mentions, "news_comments": n_news,
             "unmatched": ledger.unmatched})


def stage_geolocate(cfg, run):
    from . import corpus_ingest, geolocation
    comments_path = run.input("comments.csv")
    subreddit_states = geolocation.load_subreddit_state_map(
        run.input("synth/subreddit_states.csv", cfg.subreddit_map))
    ledger = geolocation.TallyLedger()
    locations, summary = geolocation.assign_user_states(
        _read_records(comments_path, corpus_ingest.Comment), subreddit_states,
        ledger=ledger)
    n_authors = run.write_records(
        "user_locations.csv", geolocation.UserLocation,
        (locations[a] for a in sorted(locations)))
    summary_doc = dataclasses.asdict(summary)
    pop_path = run.input("synth/populations.csv", cfg.populations,
                         optional=True)
    if pop_path:
        adoption = geolocation.adoption_and_scaling(
            locations, _read_populations(pop_path))
        summary_doc["adoption_beta"] = adoption.beta
        summary_doc["adoption_r2"] = adoption.r2
        summary_doc["adoption_excluded_states"] = adoption.excluded_states
    run.write_json("geolocate_summary.json", summary_doc)
    return {}, {"authors": n_authors, "assigned": summary.assigned,
                "tied": summary.unassigned, "unmapped": ledger.unmapped}


def _read_populations(path):
    from .states import by_state, number, read_table, state_code
    return by_state((state_code(state, where), number(int, population, where),
                     where)
                    for (state, population), where in read_table(
                        path, ("state", "population")))


def _read_locations(path):
    """author -> UserLocation"""
    from . import geolocation
    return {loc.author: loc
            for loc in _read_records(path, geolocation.UserLocation)}


def stage_attributes(cfg, run):
    from . import state_attributes
    table = state_attributes.load_attributes(
        run.input("synth/attributes.csv", cfg.attributes))
    variables = [c for c in table.columns
                 if c in state_attributes.ATTRIBUTE_COLUMNS]
    # run for its checks: a column with zero variance over the complete-case
    # states, or fewer than two such states, exits 1
    std_table, dropped = state_attributes.zscore(table, variables)
    matrix = state_attributes.cross_correlation(table, variables,
                                                alpha=cfg.alpha)
    n_pairs = run.write_csv(
        "correlations.csv",
        ["var_a", "var_b", "r", "p", "insignificant", "available"],
        [[variables[i], variables[j], f"{matrix.r[i, j]:.10g}",
          f"{matrix.p[i, j]:.10g}", int(matrix.insignificant[i, j]),
          int(matrix.available[i, j])]
         for i, j in itertools.combinations(range(len(variables)), 2)])
    return ({"alpha": cfg.alpha, "dropped_states": dropped},
            {"states": len(std_table.values), "pairs": n_pairs})


def _state_type_counts(news_path, locations):
    from . import news_catalog
    counts = {}
    for nc in _read_records(news_path, news_catalog.NewsComment):
        loc = locations.get(nc.author)
        if loc is None or loc.state is None:
            continue
        key = (nc.label, loc.state)
        counts[key] = counts.get(key, 0) + 1
    tallies = {}
    for (label, state), c in counts.items():
        tallies.setdefault(label, {})[state] = c
    return tallies


def stage_scale(cfg, run):
    from . import geolocation, scaling_laws
    news_path = run.input("news_comments.csv")
    locations = _read_locations(run.input("user_locations.csv"))
    users = geolocation.state_user_counts(locations)
    tallies = _state_type_counts(news_path, locations)
    n_cells = run.write_csv(
        "state_type_counts.csv", ["state", "news_type", "count", "users"],
        [[state, label, tallies[label][state], users.get(state, 0)]
         for label in sorted(tallies) for state in sorted(tallies[label])])

    table = scaling_laws.circulation_residual(
        tallies, users, intercept=cfg.residual_intercept)
    resid_rows = []
    fits = {}
    for label in sorted(table.per_type):
        tc = table.per_type[label]
        fits[label] = {"beta": tc.fit.beta, "r2": tc.fit.r2,
                       "regime": tc.fit.regime, "intercept": tc.fit.intercept,
                       "n": tc.fit.n, "excluded_states": tc.excluded_states}
        for state in sorted(tc.residuals):
            resid_rows.append([label, state, f"{tc.residuals[state]:.12g}",
                               f"{tc.normalized.get(state, 0.0):.12g}"])
    run.write_csv("residuals.csv",
                  ["news_type", "state", "residual", "normalized"], resid_rows)
    run.write_json("scaling_fits.json", fits)
    return {"residual_intercept": cfg.residual_intercept}, {"cells": n_cells}


def _read_residuals(path):
    from .states import number, read_table
    metric = {}
    for (label, state, residual, _), where in read_table(
            path, ("news_type", "state", "residual", "normalized")):
        metric.setdefault(label, {})[state] = number(float, residual, where)
    return metric


def stage_regress(cfg, run):
    from . import scaling_laws, state_attributes
    resid_path = run.input("residuals.csv")
    attrs = state_attributes.load_attributes(
        run.input("synth/attributes.csv", cfg.attributes))
    suite = scaling_laws.circulation_models(_read_residuals(resid_path), attrs)
    rows = scaling_laws.suite_rows(suite)
    header = sorted({k for r in rows for k in r},
                    key=lambda k: (k not in ("news_type", "group", "metric"), k))
    n_models = run.write_csv("regression_suite.csv", header,
                             [[r.get(k, "") for k in header] for r in rows])
    return {}, {"models": n_models}


def stage_diffusion(cfg, run):
    from . import diffusion, news_catalog
    news_path = run.input("news_comments.csv")
    locations = _read_locations(run.input("user_locations.csv"))
    timelines = diffusion.build_url_timelines(
        _read_records(news_path, news_catalog.NewsComment), locations)
    reach_rows = []
    time_rows = []
    for unit in diffusion.UNITS:
        walk = diffusion.walk(timelines.values(), unit)
        curves = diffusion.reach_distribution(walk.reaches)
        for label in sorted(curves):
            for k, fraction in curves[label]:
                reach_rows.append([label, unit, k, f"{fraction:.10g}"])
        for k in cfg.cascade_ks:
            stats = diffusion.cascade_times(walk.spreads, k,
                                            qualify=cfg.reach_qualify)
            for label in sorted(stats):
                st = stats[label]
                time_rows.append([label, unit, k, f"{st.mean_days:.10g}",
                                  f"{st.median_days:.10g}", st.n_urls])
        if unit == "states":
            exposures = diffusion.first_exposures(walk.spreads)
    run.write_csv("reach.csv", ["news_type", "unit", "k", "fraction"],
                  reach_rows)
    run.write_csv("cascade_times.csv",
                  ["news_type", "unit", "k", "mean_days", "median_days",
                   "n_urls"], time_rows)
    n_exposures = run.write_records("first_exposures.csv",
                                    diffusion.FirstExposure, exposures)
    return ({"qualify": cfg.reach_qualify, "ks": cfg.cascade_ks},
            {"timelines": len(timelines), "first_exposures": n_exposures})


def stage_connectivity(cfg, run):
    from . import corpus_ingest, geolocation, interaction
    comments_path = run.input("comments.csv")
    locations = _read_locations(run.input("user_locations.csv"))
    centroids = interaction.load_centroids(
        run.input("synth/centroids.csv", cfg.centroids))
    map_path = run.input("synth/subreddit_states.csv", cfg.subreddit_map,
                         optional=True)
    state_subs = geolocation.load_subreddit_state_map(map_path) \
        if map_path else None
    records = list(_read_records(comments_path, corpus_ingest.Comment))
    author_index = corpus_ingest.build_author_index(records)
    pairs = interaction.build_interaction_pairs(
        records, author_index, locations, scope=cfg.scope,
        state_subreddits=state_subs)
    profile = interaction.connectivity_profile(
        pairs, locations, centroids, bin_km=cfg.bin_km, scope=cfg.scope)
    run.write_csv("connectivity.csv",
                  ["scope", "d_km", "interacting_pairs", "possible_pairs",
                   "connectivity"],
                  [[profile.scope, b.d_km, b.interacting_pairs,
                    b.possible_pairs, f"{b.connectivity:.10g}"]
                   for b in profile.bins])
    run.write_json("connectivity_meta.json", {
        "scope": cfg.scope, "bin_km": cfg.bin_km,
        "unresolved_parents": pairs.unresolved_parents,
        "skipped": pairs.skipped,
        "interacting_pairs_total": len(pairs.counts),
        # the denominator is the exact count of user pairs whose state pair
        # falls in the bin, not N_d*(N_d-1)/2 over a notional clique
        "denominator": "exact per-bin pair count",
    })
    return ({"scope": cfg.scope, "bin_km": cfg.bin_km},
            {"bins": len(profile.bins), "pairs": len(pairs.counts),
             "pair_events": sum(pairs.counts.values()),
             "unresolved_parents": pairs.unresolved_parents,
             "skipped": pairs.skipped, "self_replies": pairs.self_replies})


def stage_contagion(cfg, run):
    from . import contagion, diffusion, state_attributes
    exposures = list(_read_records(run.input("first_exposures.csv"),
                                   diffusion.FirstExposure))
    attr_path = run.input("synth/attributes.csv", cfg.attributes,
                          optional=True)
    attrs = state_attributes.load_attributes(attr_path) if attr_path else None

    summary = {}
    scores = {}  # pagerank.csv column -> state -> score
    for label in config_mod.LABELS:
        graph = contagion.infer_state_network(
            exposures, label, min_states=cfg.min_states,
            rule=cfg.rule)
        entry = {"urls": graph.metadata["urls"],
                 "edges": len(graph.edges),
                 "total_weight": graph.total_weight(),
                 "rule": cfg.rule}
        if graph.edges:
            scores[label] = contagion.pagerank(graph, damping=cfg.damping)
            if attrs is not None and len(graph.edges) >= 2:
                entry["assortativity"] = {}
                for var in ("cultural_tightness", "republican", "population",
                            "political"):
                    values = {s: attrs.values[s][var] for s in graph.nodes
                              if s in attrs.values and
                              attrs.values[s].get(var) is not None}
                    if set(values) >= set(graph.nodes):
                        try:
                            entry["assortativity"][var] = \
                                contagion.assortativity(graph, values)
                        except NewsgeoError:
                            entry["assortativity"][var] = None
        summary[label] = entry
    if "lowcred" in scores and "reputable" in scores and \
       set(scores["lowcred"]) == set(scores["reputable"]):
        scores["reputable_minus_lowcred"] = contagion.pagerank_differential(
            scores["reputable"], scores["lowcred"])
    header = [*config_mod.LABELS, "reputable_minus_lowcred"]
    # a cell is empty where the state is not in that label's graph, or where
    # the differential is undefined
    run.write_csv("pagerank.csv", ["state", *header],
                  [[s, *(f"{scores[c][s]:.12g}" if s in scores.get(c, ())
                         else "" for c in header)]
                   for s in sorted(set().union(*scores.values()))])
    run.write_json("contagion_summary.json", summary)
    return ({"rule": cfg.rule, "min_states": cfg.min_states,
             "damping": cfg.damping},
            {label: summary[label]["urls"] for label in summary})


def stage_report(cfg, run):
    for name, target in REPORT_SOURCES.items():
        shutil.copyfile(run.input(name), run.out(f"report/{target}"))
    bundle = {"artifacts": sorted(REPORT_SOURCES.values())}
    for name in ("scaling_fits.json", "geolocate_summary.json"):
        with open(run.input(name), encoding="utf-8") as fh:
            bundle[name.removesuffix(".json")] = json.load(fh)
    run.write_json("report/summary.json", bundle)
    return {}, {"artifacts": len(REPORT_SOURCES)}


STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "classify": stage_classify,
    "geolocate": stage_geolocate,
    "attributes": stage_attributes,
    "scale": stage_scale,
    "regress": stage_regress,
    "diffusion": stage_diffusion,
    "connectivity": stage_connectivity,
    "contagion": stage_contagion,
    "report": stage_report,
}
STAGES = tuple(STAGE_FUNCS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsgeo",
        description="Geographic news-circulation analysis pipeline")
    parser.add_argument("stage", choices=STAGES + ("all",),
                        help="one stage, or 'all' for every stage after "
                             "synth in order")
    parser.add_argument("--config", default=None,
                        help="JSON run configuration file")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _run_stage(stage, cfg, outdir):
    """Run one stage and write its manifest."""
    started = time.monotonic()
    run = Run(outdir)
    parameters, rows = STAGE_FUNCS[stage](cfg, run)
    run.write_json(f"manifests/{stage}.json", {
        "stage": stage,
        "inputs": sorted(run.inputs),
        "parameters": parameters,
        "rows": rows,
        "wall_time_s": round(time.monotonic() - started, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    # `all` analyses inputs, so it leaves out synth; it stops at the first
    # stage that fails, keeping the manifests of the stages before it
    stages = STAGES[1:] if args.stage == "all" else (args.stage,)
    stage = args.stage
    try:
        cfg = config_mod.config_load(args.config) if args.config \
            else config_mod.RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        for stage in stages:
            _run_stage(stage, cfg, args.out_dir)
    except NewsgeoError as exc:
        logger.error("%s: %s: %s", stage, type(exc).__name__, exc)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1
    except OSError as exc:
        logger.error("%s: I/O error: %s", stage, exc)
        return 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
