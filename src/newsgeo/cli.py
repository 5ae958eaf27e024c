"""Pipeline orchestration CLI.

Each subcommand is one stage: it reads its declared inputs, writes its
artifacts under the output directory, and drops a machine-readable manifest.
All cross-stage artifacts are flat CSV/NDJSON so any stage can be inspected
or replaced by hand. Stage outputs are pure functions of (inputs, config,
seed); reruns are byte-identical apart from manifest timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time

from . import (config as config_mod, contagion, corpus_ingest, diffusion,
               geolocation, interaction, news_catalog, scaling_laws,
               state_attributes, synth)
from .errors import (ConfigurationError, DataIntegrityError, DependencyError,
                     FormatError, NewsgeoError)

logger = logging.getLogger(__name__)

EXIT_CODES = {
    ConfigurationError: 2,
    DependencyError: 3,
    DataIntegrityError: 4,
    FormatError: 5,
}


def _write_manifest(outdir, stage, inputs, parameters, rows, started):
    os.makedirs(os.path.join(outdir, "manifests"), exist_ok=True)
    manifest = {
        "stage": stage,
        "inputs": sorted(inputs),
        "parameters": parameters,
        "rows": rows,
        "wall_time_s": round(time.monotonic() - started, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(outdir, "manifests", f"{stage}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def _require(path, stage_hint):
    if path is None or not os.path.exists(path):
        raise DependencyError(
            f"missing artifact {path!r}; run the {stage_hint!r} stage first")
    return path


def _out(outdir, name):
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _synth_path(cfg_value, outdir, name):
    """Explicit config path wins; otherwise fall back to the synth stage output."""
    return cfg_value or os.path.join(outdir, "synth", name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

def stage_synth(cfg, outdir):
    started = time.monotonic()
    synth_params = dict(cfg.synth)
    synth_params.setdefault("seed", cfg.seed)
    scfg = synth.SynthConfig.from_dict(synth_params)
    output = synth.generate(scfg)
    paths = synth.write_outputs(output, os.path.join(outdir, "synth"))
    return _write_manifest(outdir, "synth", [], synth._config_as_dict(scfg),
                           {"records": output.ledger["n_records"],
                            "files": len(paths)}, started)


def stage_ingest(cfg, outdir):
    started = time.monotonic()
    archive = _require(_synth_path(cfg.archive, outdir, "archive.ndjson"), "synth")
    ledger = corpus_ingest.StreamLedger()
    mentions_path = _out(outdir, "mentions.csv")
    n_mentions = 0
    with open(archive, "rb") as fh, \
         open(mentions_path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["comment_id", "author", "subreddit", "created_utc",
                         "url", "host"])
        records = corpus_ingest.stream_comments(fh, ledger=ledger)
        for m in corpus_ingest.iter_url_mentions(records):
            writer.writerow([m.comment_id, m.author, m.subreddit,
                             m.created_utc, m.url, m.host])
            n_mentions += 1
    return _write_manifest(outdir, "ingest", [archive], {},
                           {"records": ledger.records,
                            "malformed": ledger.malformed,
                            "deleted_author": ledger.deleted_author,
                            "mentions": n_mentions}, started)


def _read_mentions(path):
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            yield corpus_ingest.UrlMention(
                comment_id=row["comment_id"], author=row["author"],
                subreddit=row["subreddit"],
                created_utc=int(row["created_utc"]),
                url=row["url"], host=row["host"])


def _load_catalog(cfg, outdir):
    files = cfg.catalog_files()
    if not files:
        files = [(p, label) for label in news_catalog.LABELS
                 if os.path.exists(p := os.path.join(
                     outdir, "synth", f"catalog_{label}.txt"))]
    if not files:
        raise DependencyError("no catalog files configured; run 'synth' or "
                              "set catalog_* paths")
    return news_catalog.load_catalog(files), [p for p, _ in files]


def stage_classify(cfg, outdir):
    started = time.monotonic()
    mentions_path = _require(os.path.join(outdir, "mentions.csv"), "ingest")
    catalog, catalog_paths = _load_catalog(cfg, outdir)
    tallies = {}
    news_path = _out(outdir, "news_comments.csv")
    n_news = 0
    with open(news_path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["comment_id", "author", "subreddit", "created_utc",
                         "url", "host", "domain", "label"])
        for nc in news_catalog.classify_mentions(
                _read_mentions(mentions_path), catalog, tallies):
            writer.writerow([nc.comment_id, nc.author, nc.subreddit,
                             nc.created_utc, nc.url, nc.host, nc.domain,
                             nc.label])
            n_news += 1
    tally_rows = []
    for label in news_catalog.LABELS:
        counts = tallies.get(label, news_catalog.TypeTally()).counts()
        tally_rows.append([label, counts["unique_comments"],
                           counts["unique_users"], counts["unique_sites"],
                           counts["unique_urls"]])
    _write_csv(_out(outdir, "tallies.csv"),
               ["news_type", "unique_comments", "unique_users",
                "unique_sites", "unique_urls"], tally_rows)
    return _write_manifest(outdir, "classify",
                           [mentions_path] + catalog_paths,
                           {"catalog_counts": catalog.label_counts()},
                           {"news_comments": n_news}, started)


def stage_geolocate(cfg, outdir):
    started = time.monotonic()
    archive = _require(_synth_path(cfg.archive, outdir, "archive.ndjson"), "synth")
    map_path = _require(_synth_path(cfg.subreddit_map, outdir,
                                    "subreddit_states.csv"), "synth")
    subreddit_states = geolocation.load_subreddit_state_map(map_path)
    with open(archive, "rb") as fh:
        locations, summary = geolocation.assign_user_states(
            corpus_ingest.stream_comments(fh), subreddit_states)
    rows = [[loc.author, loc.state or "",
             json.dumps(loc.state_counts, sort_keys=True)]
            for loc in (locations[a] for a in sorted(locations))]
    _write_csv(_out(outdir, "user_locations.csv"),
               ["author", "state", "counts_json"], rows)

    summary_doc = {
        "mapped_authors": summary.mapped_authors,
        "assigned": summary.assigned,
        "unassigned": summary.unassigned,
        "fraction_single_state": summary.fraction_single_state,
        "fraction_at_most_two": summary.fraction_at_most_two,
        "fraction_unassigned": summary.fraction_unassigned,
    }
    pop_path = _synth_path(cfg.populations, outdir, "populations.csv")
    if os.path.exists(pop_path):
        populations = _read_populations(pop_path)
        adoption = geolocation.adoption_and_scaling(locations, populations)
        _write_csv(_out(outdir, "adoption.csv"),
                   ["state", "reddit_users", "population", "adoption"],
                   [[r.state, r.reddit_users, r.population,
                     f"{r.adoption:.10g}"] for r in adoption.rows])
        summary_doc["adoption_beta"] = adoption.beta
        summary_doc["adoption_r2"] = adoption.r2
        summary_doc["adoption_excluded_states"] = adoption.excluded_states
    with open(_out(outdir, "geolocate_summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary_doc, fh, indent=1, sort_keys=True)
    return _write_manifest(outdir, "geolocate", [archive, map_path], {},
                           {"authors": len(rows)}, started)


def _read_populations(path):
    populations = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            populations[row["state"].strip().upper()] = int(row["population"])
    return populations


def _read_locations(path):
    locations = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            locations[row["author"]] = geolocation.UserLocation(
                author=row["author"], state=row["state"] or None,
                state_counts=json.loads(row["counts_json"]))
    return locations


def stage_attributes(cfg, outdir):
    started = time.monotonic()
    attr_path = _require(_synth_path(cfg.attributes, outdir, "attributes.csv"),
                         "synth")
    table = state_attributes.load_attributes(attr_path)
    variables = [c for c in table.columns
                 if c in state_attributes.ATTRIBUTE_COLUMNS]
    std_table, dropped = state_attributes.zscore(table, variables)
    std_rows = [[s] + [f"{std_table.values[s][v]:.10g}" for v in variables]
                for s in std_table.states()]
    _write_csv(_out(outdir, "attributes_std.csv"), ["state"] + variables,
               std_rows)
    matrix = state_attributes.cross_correlation(table, variables,
                                                alpha=cfg.alpha)
    corr_rows = []
    for i, vi in enumerate(variables):
        for j, vj in enumerate(variables):
            if j <= i:
                continue
            corr_rows.append([vi, vj, f"{matrix.r[i, j]:.10g}",
                              f"{matrix.p[i, j]:.10g}",
                              int(matrix.insignificant[i, j]),
                              int(matrix.available[i, j])])
    _write_csv(_out(outdir, "correlations.csv"),
               ["var_a", "var_b", "r", "p", "insignificant", "available"],
               corr_rows)
    return _write_manifest(outdir, "attributes", [attr_path],
                           {"alpha": cfg.alpha, "dropped_states": dropped},
                           {"states": len(std_rows), "pairs": len(corr_rows)},
                           started)


def _state_type_counts(news_path, locations):
    counts = {}
    with open(news_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            loc = locations.get(row["author"])
            if loc is None or loc.state is None:
                continue
            key = (row["label"], loc.state)
            counts[key] = counts.get(key, 0) + 1
    tallies = {}
    for (label, state), c in counts.items():
        tallies.setdefault(label, {})[state] = c
    return tallies


def stage_scale(cfg, outdir):
    started = time.monotonic()
    news_path = _require(os.path.join(outdir, "news_comments.csv"), "classify")
    loc_path = _require(os.path.join(outdir, "user_locations.csv"), "geolocate")
    locations = _read_locations(loc_path)
    users = geolocation.state_user_counts(locations)
    tallies = _state_type_counts(news_path, locations)

    count_rows = []
    for label in sorted(tallies):
        for state in sorted(tallies[label]):
            count_rows.append([state, label, tallies[label][state],
                               users.get(state, 0)])
    _write_csv(_out(outdir, "state_type_counts.csv"),
               ["state", "news_type", "count", "users"], count_rows)

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
    _write_csv(_out(outdir, "residuals.csv"),
               ["news_type", "state", "residual", "normalized"], resid_rows)
    with open(_out(outdir, "scaling_fits.json"), "w", encoding="utf-8") as fh:
        json.dump(fits, fh, indent=1, sort_keys=True)
    return _write_manifest(outdir, "scale", [news_path, loc_path],
                           {"residual_intercept": cfg.residual_intercept},
                           {"cells": len(count_rows)}, started)


def _read_residuals(path):
    metric = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            metric.setdefault(row["news_type"], {})[row["state"]] = \
                float(row["residual"])
    return metric


def stage_regress(cfg, outdir):
    started = time.monotonic()
    resid_path = _require(os.path.join(outdir, "residuals.csv"), "scale")
    attr_path = _require(_synth_path(cfg.attributes, outdir, "attributes.csv"),
                         "synth")
    metric = _read_residuals(resid_path)
    attrs = state_attributes.load_attributes(attr_path)
    suite = scaling_laws.circulation_models(
        metric, attrs, direction=cfg.aic_direction)
    rows = scaling_laws.suite_rows(suite)
    with open(_out(outdir, "regression_suite.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
    header = sorted({k for r in rows for k in r},
                    key=lambda k: (k not in ("news_type", "group", "metric"), k))
    _write_csv(_out(outdir, "regression_suite.csv"), header,
               [[r.get(k, "") for k in header] for r in rows])
    return _write_manifest(outdir, "regress", [resid_path, attr_path],
                           {"direction": cfg.aic_direction},
                           {"models": len(rows)}, started)


def _read_news_comments(path):
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            yield news_catalog.NewsComment(
                comment_id=row["comment_id"], author=row["author"],
                subreddit=row["subreddit"],
                created_utc=int(row["created_utc"]), url=row["url"],
                host=row["host"], domain=row["domain"], label=row["label"])


def stage_diffusion(cfg, outdir):
    started = time.monotonic()
    news_path = _require(os.path.join(outdir, "news_comments.csv"), "classify")
    loc_path = _require(os.path.join(outdir, "user_locations.csv"), "geolocate")
    locations = _read_locations(loc_path)
    timelines = diffusion.build_url_timelines(_read_news_comments(news_path),
                                              locations)
    reach_rows = []
    time_rows = []
    for unit in diffusion.UNITS:
        curves = diffusion.reach_distribution(timelines.values(), unit)
        for label in sorted(curves):
            for k, fraction in curves[label]:
                reach_rows.append([label, unit, k, f"{fraction:.10g}"])
        for k in cfg.cascade_ks:
            stats = diffusion.cascade_times(timelines.values(), unit, k,
                                            qualify=cfg.reach_qualify)
            for label in sorted(stats):
                st = stats[label]
                time_rows.append([label, unit, k, f"{st.mean_days:.10g}",
                                  f"{st.median_days:.10g}", st.n_urls])
    _write_csv(_out(outdir, "reach.csv"),
               ["news_type", "unit", "k", "fraction"], reach_rows)
    _write_csv(_out(outdir, "cascade_times.csv"),
               ["news_type", "unit", "k", "mean_days", "median_days",
                "n_urls"], time_rows)
    return _write_manifest(outdir, "diffusion", [news_path, loc_path],
                           {"qualify": cfg.reach_qualify,
                            "ks": cfg.cascade_ks},
                           {"timelines": len(timelines)}, started)


def stage_connectivity(cfg, outdir):
    started = time.monotonic()
    archive = _require(_synth_path(cfg.archive, outdir, "archive.ndjson"), "synth")
    loc_path = _require(os.path.join(outdir, "user_locations.csv"), "geolocate")
    cent_path = _require(_synth_path(cfg.centroids, outdir, "centroids.csv"),
                         "synth")
    map_path = _synth_path(cfg.subreddit_map, outdir, "subreddit_states.csv")
    locations = _read_locations(loc_path)
    centroids = interaction.load_centroids(cent_path)
    state_subs = geolocation.load_subreddit_state_map(map_path) \
        if os.path.exists(map_path) else None
    with open(archive, "rb") as fh:
        records = list(corpus_ingest.stream_comments(fh))
    author_index = corpus_ingest.build_author_index(records)
    pairs = interaction.build_interaction_pairs(
        records, author_index, locations, scope=cfg.scope,
        state_subreddits=state_subs)
    profile = interaction.connectivity_profile(
        pairs, locations, centroids, bin_km=cfg.bin_km, scope=cfg.scope)
    _write_csv(_out(outdir, "connectivity.csv"),
               ["scope", "d_km", "interacting_pairs", "possible_pairs",
                "connectivity"],
               [[profile.scope, b.d_km, b.interacting_pairs, b.possible_pairs,
                 f"{b.connectivity:.10g}"] for b in profile.bins])
    meta = {
        "scope": cfg.scope, "bin_km": cfg.bin_km,
        "unresolved_parents": pairs.unresolved_parents,
        "skipped": pairs.skipped,
        "interacting_pairs_total": len(pairs.counts),
        # the denominator is the exact count of user pairs whose state pair
        # falls in the bin, not N_d*(N_d-1)/2 over a notional clique
        "denominator": "exact per-bin pair count",
    }
    with open(_out(outdir, "connectivity_meta.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return _write_manifest(outdir, "connectivity",
                           [archive, loc_path, cent_path],
                           {"scope": cfg.scope, "bin_km": cfg.bin_km},
                           {"bins": len(profile.bins),
                            "pairs": len(pairs.counts)}, started)


def stage_contagion(cfg, outdir):
    started = time.monotonic()
    news_path = _require(os.path.join(outdir, "news_comments.csv"), "classify")
    loc_path = _require(os.path.join(outdir, "user_locations.csv"), "geolocate")
    locations = _read_locations(loc_path)
    timelines = diffusion.build_url_timelines(_read_news_comments(news_path),
                                              locations)
    attr_path = _synth_path(cfg.attributes, outdir, "attributes.csv")
    attrs = state_attributes.load_attributes(attr_path) \
        if os.path.exists(attr_path) else None

    summary = {}
    scores_by_label = {}
    for label in news_catalog.LABELS:
        graph = contagion.infer_state_network(
            timelines.values(), label, min_states=cfg.min_states,
            rule=cfg.rule)
        _write_csv(_out(outdir, f"contagion_edges_{label}.csv"),
                   ["src", "dst", "weight"],
                   [[s, d, f"{w:.10g}"]
                    for (s, d), w in sorted(graph.edges.items())])
        entry = {"urls": graph.metadata["urls"],
                 "edges": len(graph.edges),
                 "total_weight": graph.total_weight(),
                 "rule": cfg.rule}
        if graph.edges:
            scores = contagion.pagerank(graph, damping=cfg.damping)
            scores_by_label[label] = scores
            _write_csv(_out(outdir, f"pagerank_{label}.csv"),
                       ["state", "score"],
                       [[s, f"{scores[s]:.12g}"] for s in sorted(scores)])
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
    if "lowcred" in scores_by_label and "reputable" in scores_by_label and \
       set(scores_by_label["lowcred"]) == set(scores_by_label["reputable"]):
        diff = contagion.pagerank_differential(scores_by_label["reputable"],
                                               scores_by_label["lowcred"])
        _write_csv(_out(outdir, "pagerank_differential.csv"),
                   ["state", "score_diff"],
                   [[s, f"{diff[s]:.12g}"] for s in sorted(diff)])
    with open(_out(outdir, "contagion_summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return _write_manifest(outdir, "contagion", [news_path, loc_path],
                           {"rule": cfg.rule, "min_states": cfg.min_states,
                            "damping": cfg.damping},
                           {label: summary[label]["urls"]
                            for label in summary}, started)


# stage artifact -> (stage that writes it, name in the report bundle)
REPORT_SOURCES = {
    "tallies.csv": ("classify", "table1.csv"),
    "regression_suite.csv": ("regress", "table3.csv"),
    "reach.csv": ("diffusion", "fig3a.csv"),
    "cascade_times.csv": ("diffusion", "fig3b.csv"),
    "connectivity.csv": ("connectivity", "fig5.csv"),
    "contagion_summary.json": ("contagion", "contagion.json"),
}


def stage_report(cfg, outdir):
    started = time.monotonic()
    report_dir = os.path.join(outdir, "report")
    os.makedirs(report_dir, exist_ok=True)
    copied = []
    for name, (stage_hint, target) in REPORT_SOURCES.items():
        src = _require(os.path.join(outdir, name), stage_hint)
        with open(src, "rb") as fh:
            data = fh.read()
        with open(os.path.join(report_dir, target), "wb") as fh:
            fh.write(data)
        copied.append(target)
    bundle = {"artifacts": sorted(copied)}
    for extra in ("scaling_fits.json", "geolocate_summary.json"):
        src = os.path.join(outdir, extra)
        if os.path.exists(src):
            with open(src, encoding="utf-8") as fh:
                bundle[extra.removesuffix(".json")] = json.load(fh)
    with open(os.path.join(report_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=1, sort_keys=True)
    return _write_manifest(outdir, "report", sorted(REPORT_SOURCES), {},
                           {"artifacts": len(copied)}, started)


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
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--config", default=None,
                        help="JSON run configuration file")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = config_mod.config_load(args.config) if args.config \
            else config_mod.RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        STAGE_FUNCS[args.stage](cfg, args.out_dir)
    except NewsgeoError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
