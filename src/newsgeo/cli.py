"""Pipeline orchestration CLI.

Each subcommand is one stage: it reads its declared inputs, writes its
artifacts under the output directory, and drops a machine-readable manifest.
`all` runs every stage after `synth` in order, in one process.
All cross-stage artifacts are flat CSV/NDJSON so any stage can be inspected
or replaced by hand. Stage outputs are pure functions of (inputs, config,
seed); reruns are byte-identical apart from the manifest fields
`wall_time_s`, `peak_rss_mb` and `written_at`.

A stage function resolves every input it reads through its `Run` before
its first write: each input is required, and is either an input key of
`config.INPUT_FILES` or an artifact that an earlier stage wrote under the
output directory. It returns its manifest parameters and row counts;
`_run_stage` times every stage and writes every manifest, listing each
input the stage read.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import math
import operator
import os
import shutil
import sys
import time

from . import config as config_mod
from .errors import (ConfigurationError, DataIntegrityError, DependencyError,
                     FormatError, NewsgeoError, UndefinedCorrelationError)

# a fixed name, so `python -m newsgeo.cli` logs as the console script does
logger = logging.getLogger("newsgeo.cli")

EXIT_CODES = {
    ConfigurationError: 2,
    DependencyError: 3,
    DataIntegrityError: 4,
    FormatError: 5,
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

# the state attributes whose assortativity each contagion network reports
ASSORTATIVITY_VARIABLES = ("cultural_tightness", "republican", "population",
                           "political")


class Run:
    """One stage invocation: resolves the inputs it reads, records each one
    for the manifest, and writes outputs under `outdir`."""

    def __init__(self, outdir, cfg):
        self.outdir = outdir
        self.cfg = cfg
        self.inputs = []

    def input(self, name):
        """Path of input `name`. An input key of `config.INPUT_FILES` is its
        configured path if set, else the file synth writes in its place; any
        other name is an artifact under `outdir`. A missing input raises
        DependencyError naming the key and its configured path, or the stage
        that writes the file."""
        if name not in config_mod.INPUT_FILES:
            path, producer = os.path.join(self.outdir, name), PRODUCERS[name]
        elif (path := getattr(self.cfg, name)) is None:
            path = os.path.join(self.outdir, "synth",
                                config_mod.INPUT_FILES[name])
            producer = "synth"
        elif not os.path.exists(path):
            raise DependencyError(f"configured input {name!r} ({path!r}) "
                                  "does not exist")
        if not os.path.exists(path):
            raise DependencyError(f"missing artifact {path!r}; "
                                  f"run the {producer!r} stage first")
        self.inputs.append(path)
        return path

    def out(self, name):
        path = os.path.join(self.outdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def write_csv(self, name, header, rows):
        """Write `header`, then each row as it is pulled from `rows`;
        returns the number of rows."""
        from .states import write_table
        return write_table(self.out(name), header, rows)

    def write_records(self, name, cls, records):
        """Write dataclass records for `_read_records`, one column per field
        of `cls` in field order, a float as `.12g` text; returns the count."""
        fields = dataclasses.fields(cls)
        header = [f.name for f in fields]
        rows = map(operator.attrgetter(*header), records)
        if floats := {i for i, f in enumerate(fields) if f.type == "float"}:
            rows = ([f"{v:.12g}" if i in floats else v
                     for i, v in enumerate(row)] for row in rows)
        return self.write_csv(name, header, rows)

    def write_json(self, name, doc):
        with open(self.out(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def _read_records(path, cls):
    """Yield the `cls` records of a CSV written by `Run.write_records`, each
    cell read by the `states.CELL_RULES` entry of its field's annotation. A
    wrong header, a row with the wrong number of fields or a cell outside
    its field's domain raises FormatError, as does what `open_table`
    rejects. A record that repeats an earlier one's `cls.KEY` fields, if
    `cls` declares them, raises DataIntegrityError."""
    from .states import CELL_RULES, open_table
    columns = dataclasses.fields(cls)
    names = [f.name for f in columns]
    width = len(columns)
    rules = [(i, *CELL_RULES[f.type]) for i, f in enumerate(columns)
             if f.type != "str"]
    key = getattr(cls, "KEY", None)
    key_of = key and operator.itemgetter(*map(names.index, key))
    keys = set()
    with open_table(path) as reader:
        header = next(reader, None)
        if header != names:
            raise FormatError(f"{path}: header {header} does not match "
                              f"the {cls.__name__} fields")
        for row in reader:
            if len(row) != width:
                raise FormatError(f"{path}: line {reader.line_num} has "
                                  f"{len(row)} fields, expected {width}")
            for i, read, domain in rules:
                try:
                    row[i] = read(row[i])
                except (KeyError, ValueError):
                    raise FormatError(f"{path}: line {reader.line_num}: "
                                      f"{row[i]!r} is not {domain}") from None
            if key_of:
                if (value := key_of(row)) in keys:
                    raise DataIntegrityError(f"{path}: line {reader.line_num}: "
                                             f"repeated {'/'.join(key)} "
                                             f"{value!r}")
                keys.add(value)
            yield cls(*row)


# --------------------------------------------------------------------------
# stages: each takes (cfg, run) and returns (parameters, rows) for its
# manifest
# --------------------------------------------------------------------------

def stage_synth(cfg, run):
    from . import synth
    scfg = synth.SynthConfig.from_dict({**cfg.synth, "seed": cfg.seed})
    output = synth.generate(scfg)
    paths = synth.write_outputs(output, os.path.join(run.outdir, "synth"))
    return dataclasses.asdict(scfg), {"records": output.ledger["n_records"],
                                      "files": len(paths)}


def stage_ingest(cfg, run):
    from . import corpus_ingest, states
    # one pass: each parsed comment is noted for the tables written after it
    # on its way to the URL extractor, so the archive is never held in memory
    ledger = corpus_ingest.StreamLedger()
    counts, authors, replies = {}, {}, []
    with open(run.input("archive"), "rb") as fh:
        records = corpus_ingest.note_comments(
            corpus_ingest.stream_comments(fh, ledger=ledger),
            counts, authors, replies, ledger=ledger)
        n_mentions = run.write_records(
            "mentions.csv", states.UrlMention,
            corpus_ingest.iter_url_mentions(records, ledger=ledger))
    n_counts = run.write_records(
        "author_subreddits.csv", states.SubredditCount,
        (states.SubredditCount(*key, counts[key])
         for key in sorted(counts)))
    n_replies = run.write_records(
        "replies.csv", states.Reply,
        (corpus_ingest.resolve_reply(reply, authors) for reply in replies))
    return {}, {"records": ledger.records, "malformed": ledger.malformed,
                "deleted_author": ledger.deleted_author,
                "duplicates": ledger.duplicates,
                "mentions": n_mentions,
                "urls_without_host": ledger.urls_without_host,
                "author_subreddits": n_counts, "replies": n_replies}


def stage_classify(cfg, run):
    from . import news_catalog, states
    mentions_path = run.input("mentions.csv")
    catalog = news_catalog.load_catalog(
        [(run.input(f"catalog_{label}"), label)
         for label in config_mod.LABELS])
    tallies = {}
    ledger = news_catalog.MatchLedger()
    n_news = run.write_records(
        "news_comments.csv", states.NewsComment,
        news_catalog.classify_mentions(
            _read_records(mentions_path, states.UrlMention),
            catalog, tallies, ledger=ledger))
    run.write_csv("tallies.csv",
                  ["news_type", "unique_comments", "unique_users",
                   "unique_sites", "unique_urls"],
                  [[label, *tallies.get(label, news_catalog.TypeTally())
                    .counts().values()] for label in config_mod.LABELS])
    return ({"catalog_counts": news_catalog.label_counts(catalog)},
            {"mentions": ledger.mentions, "news_comments": n_news,
             "unmatched": ledger.unmatched})


def stage_geolocate(cfg, run):
    from . import geolocation, states
    counts_path = run.input("author_subreddits.csv")
    map_path = run.input("subreddit_map")
    subreddit_states = geolocation.load_subreddit_state_map(map_path)
    tallies, unmapped = geolocation.tally_user_states(
        _read_records(counts_path, states.SubredditCount), subreddit_states)
    locations, summary = geolocation.resolve_assignments(tallies)
    n_authors = run.write_records(
        "user_locations.csv", states.UserLocation,
        (states.UserLocation(author, locations[author])
         for author in sorted(locations)))
    run.write_json("geolocate_summary.json", dataclasses.asdict(summary))
    return {}, {"authors": n_authors, "assigned": summary.assigned,
                "tied": summary.unassigned, "unmapped": unmapped}


def _read_populations(path):
    from .states import by_state, number, read_table, state_code
    rows = []
    for (cell, count), where in read_table(path, ("state", "population")):
        state, population = state_code(cell, where), number(int, count, where)
        if population <= 0:
            raise ConfigurationError(f"{where}: population must be positive")
        rows.append((state, population, where))
    return by_state(rows)


def _read_locations(path):
    """author -> state, None for a tie"""
    from . import states
    return {loc.author: loc.state
            for loc in _read_records(path, states.UserLocation)}


def stage_attributes(cfg, run):
    from . import state_attributes
    table = state_attributes.load_attributes(run.input("attributes"))
    variables = table.columns
    # run for its checks: a column with zero variance over the complete-case
    # states, or fewer than two such states, exits 1
    std_table, dropped = state_attributes.zscore(table, variables)
    r, p = state_attributes.cross_correlation(table, variables)
    # a pair with too few complete states has NaN r and p: it is
    # unavailable, and not insignificant
    n_pairs = run.write_csv(
        "correlations.csv",
        ["var_a", "var_b", "r", "p", "insignificant", "available"],
        [[variables[i], variables[j], f"{r[i, j]:.10g}", f"{p[i, j]:.10g}",
          int(p[i, j] >= cfg.alpha), int(not math.isnan(r[i, j]))]
         for i, j in itertools.combinations(range(len(variables)), 2)])
    return ({"alpha": cfg.alpha, "dropped_states": dropped},
            {"states": len(std_table.values), "pairs": n_pairs})


def _state_type_counts(news_path, locations):
    from . import states
    tallies = {}
    for nc in _read_records(news_path, states.NewsComment):
        state = locations.get(nc.author)
        if state is None:
            continue
        per_state = tallies.setdefault(nc.label, {})
        per_state[state] = per_state.get(state, 0) + 1
    return tallies


def stage_scale(cfg, run):
    from . import geolocation, states
    from .stats_core import fit_scaling
    news_path = run.input("news_comments.csv")
    locations = _read_locations(run.input("user_locations.csv"))
    populations = _read_populations(run.input("populations"))
    users = geolocation.state_user_counts(locations)
    if unknown := sorted(users.keys() - populations.keys()):
        raise ConfigurationError(f"no population for state {unknown[0]!r} "
                                 "in population file")
    # the adoption law: users against population
    adoption, _ = fit_scaling(populations, users)
    tallies = _state_type_counts(news_path, locations)
    n_cells = run.write_csv(
        "state_type_counts.csv", ["state", "news_type", "count", "users"],
        [[state, label, tallies[label][state], users.get(state, 0)]
         for label in sorted(tallies) for state in sorted(tallies[label])])

    # each circulation law: a label's counts against users
    laws = {label: fit_scaling(users, tallies[label])
            for label in sorted(tallies)}
    run.write_records("residuals.csv", states.Residual,
                      (states.Residual(label, state, residuals[state])
                       for label, (_, residuals) in laws.items()
                       for state in sorted(residuals)))
    run.write_json("scaling_fits.json", {
        "adoption": dataclasses.asdict(adoption),
        **{label: dataclasses.asdict(fit)
           for label, (fit, _) in laws.items()}})
    return {}, {"cells": n_cells}


def stage_regress(cfg, run):
    from . import scaling_laws, state_attributes, states
    resid_path = run.input("residuals.csv")
    attrs = state_attributes.load_attributes(run.input("attributes"))
    metric = {}  # news type -> state -> circulation residual
    for r in _read_records(resid_path, states.Residual):
        metric.setdefault(r.news_type, {})[r.state] = r.residual
    suite = scaling_laws.circulation_models(metric, attrs)
    rows = scaling_laws.suite_rows(suite)
    header = sorted({k for r in rows for k in r},
                    key=lambda k: (k not in ("news_type", "group", "metric"), k))
    n_models = run.write_csv("regression_suite.csv", header,
                             [[r.get(k, "") for k in header] for r in rows])
    return {}, {"models": n_models}


def stage_diffusion(cfg, run):
    from . import diffusion, states
    news_path = run.input("news_comments.csv")
    locations = _read_locations(run.input("user_locations.csv"))
    timelines = diffusion.build_url_timelines(
        _read_records(news_path, states.NewsComment), locations)
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
                                            cfg.reach_qualify)
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
                                    states.FirstExposure, exposures)
    return ({"qualify": cfg.reach_qualify, "ks": cfg.cascade_ks},
            {"timelines": len(timelines), "first_exposures": n_exposures})


def stage_connectivity(cfg, run):
    from . import geolocation, interaction, states
    replies_path = run.input("replies.csv")
    locations = _read_locations(run.input("user_locations.csv"))
    centroids = interaction.load_centroids(run.input("centroids"))
    state_subs = geolocation.load_subreddit_state_map(
        run.input("subreddit_map"))
    # the replies go first and by position: the benchmark's tracer
    # (pipebench/tracer.py) counts them from the first positional argument
    pairs = interaction.build_interaction_pairs(
        _read_records(replies_path, states.Reply), locations,
        cfg.scope, state_subs)
    bins = interaction.connectivity_profile(pairs, locations, centroids,
                                            cfg.bin_km)
    run.write_csv("connectivity.csv",
                  ["scope", "d_km", "interacting_pairs", "possible_pairs",
                   "connectivity"],
                  [[cfg.scope, b.d_km, b.interacting_pairs,
                    b.possible_pairs, f"{b.connectivity:.10g}"]
                   for b in bins])
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
            {"bins": len(bins), "pairs": len(pairs.counts),
             "pair_events": sum(pairs.counts.values()),
             "unresolved_parents": pairs.unresolved_parents,
             "skipped": pairs.skipped, "self_replies": pairs.self_replies})


def stage_contagion(cfg, run):
    from . import contagion, state_attributes, states
    exposures = list(_read_records(run.input("first_exposures.csv"),
                                   states.FirstExposure))
    attrs = state_attributes.load_attributes(run.input("attributes"))

    summary = {}
    scores = {}  # pagerank.csv column -> state -> score
    for label in config_mod.LABELS:
        graph = contagion.infer_state_network(exposures, label,
                                              cfg.min_states, cfg.rule)
        entry = summary[label] = {"urls": graph.metadata["urls"],
                                  "edges": len(graph.edges),
                                  "total_weight": graph.total_weight(),
                                  "rule": cfg.rule}
        if graph.edges:
            scores[label] = contagion.pagerank(graph, cfg.damping)
        if len(graph.edges) >= 2:
            # a variable that a node of the graph lacks is left out, and
            # one constant over the edges reads null
            entry["assortativity"] = coefficients = {}
            for var in ASSORTATIVITY_VARIABLES:
                values = {s: attrs.values[s][var] for s in graph.nodes
                          if attrs.values.get(s, {}).get(var) is not None}
                if len(values) < len(graph.nodes):
                    continue
                try:
                    coefficients[var] = contagion.assortativity(graph, values)
                except UndefinedCorrelationError:
                    coefficients[var] = None
    lowcred, reputable = scores.get("lowcred"), scores.get("reputable")
    if lowcred and reputable and lowcred.keys() == reputable.keys():
        scores["reputable_minus_lowcred"] = {s: reputable[s] - lowcred[s]
                                             for s in lowcred}
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
    sources = {name: run.input(name) for name in REPORT_SOURCES}
    bundle = {"artifacts": sorted(REPORT_SOURCES.values())}
    for name in ("scaling_fits.json", "geolocate_summary.json"):
        with open(run.input(name), encoding="utf-8") as fh:
            bundle[name.removesuffix(".json")] = json.load(fh)
    for name, target in REPORT_SOURCES.items():
        shutil.copyfile(sources[name], run.out(f"report/{target}"))
    run.write_json("report/summary.json", bundle)
    return {}, {"artifacts": len(REPORT_SOURCES)}


# stage -> (its function, the artifacts it writes for later stages to read),
# in run order. synth writes under synth/ and report under report/; the
# connectivity_meta.json that only the benchmark's output checks read is
# left out.
STAGE_TABLE = {
    "synth": (stage_synth, ()),
    "ingest": (stage_ingest, ("mentions.csv", "author_subreddits.csv",
                              "replies.csv")),
    "classify": (stage_classify, ("news_comments.csv", "tallies.csv")),
    "geolocate": (stage_geolocate,
                  ("user_locations.csv", "geolocate_summary.json")),
    "attributes": (stage_attributes, ("correlations.csv",)),
    "scale": (stage_scale, ("state_type_counts.csv", "residuals.csv",
                            "scaling_fits.json")),
    "regress": (stage_regress, ("regression_suite.csv",)),
    "diffusion": (stage_diffusion, ("reach.csv", "cascade_times.csv",
                                    "first_exposures.csv")),
    "connectivity": (stage_connectivity, ("connectivity.csv",)),
    "contagion": (stage_contagion, ("contagion_summary.json",
                                    "pagerank.csv")),
    "report": (stage_report, ()),
}
STAGES = tuple(STAGE_TABLE)
# artifact a stage requires -> the stage that writes it; an input key's
# synth/ stand-in is written by the synth stage
PRODUCERS = {artifact: stage for stage, (_, outputs) in STAGE_TABLE.items()
             for artifact in outputs}


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
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _peak_rss_mb():
    """This process's peak resident set size so far, in MB: `VmHWM` from
    /proc/self/status, or `ru_maxrss` where /proc is absent."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 2)
    except OSError:
        pass
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in kB elsewhere
    return round(peak / (2**20 if sys.platform == "darwin" else 1024), 2)


def _run_stage(stage, cfg, outdir):
    """Run one stage and write its manifest."""
    started = time.monotonic()
    run = Run(outdir, cfg)
    parameters, rows = STAGE_TABLE[stage][0](cfg, run)
    run.write_json(f"manifests/{stage}.json", {
        "stage": stage,
        "inputs": sorted(run.inputs),
        "parameters": parameters,
        "rows": rows,
        "wall_time_s": round(time.monotonic() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def main(argv: list[str] | None = None) -> int:
    # Before any stage imports numpy: every matrix a stage builds is at most
    # 50 x 50 and the outputs are byte-identical with one BLAS thread, while
    # starting OpenBLAS's thread pool costs about 65 ms of every process
    # that loads numpy, on a 2-core host. A caller's own setting stands.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
