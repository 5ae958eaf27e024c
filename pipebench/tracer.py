"""Run one newsgeo stage with per-module spans and call counters.

    python3 pipebench/tracer.py TRACE.json <newsgeo cli arguments...>

Times `import newsgeo.cli`, wraps the public functions of every newsgeo
module from outside (no file under src/ changes), then calls
`newsgeo.cli.main` with the remaining arguments and exits with its code.

Each wrapped call is a span; a span's self time is its duration minus the
duration of the spans it encloses. Generator functions are timed on each
`next()`, so time spent pulling from a wrapped upstream generator is child
time. Hot leaf functions get a call counter only. Spans and counters are
aggregated per name in memory and written to TRACE.json once, when the stage
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

perf = time.perf_counter

# The modules that do work; config, errors and states do none worth timing.
LAYERS = ("cli", "corpus_ingest", "news_catalog", "geolocation",
          "scaling_laws", "stats_core", "state_attributes", "diffusion",
          "interaction", "contagion", "synth")

# Called once per record, mention, timeline or pair: counted, not spanned.
# The UrlTimeline methods distinct_units and time_to_reach are counted too.
HOT_LEAVES = {"corpus_ingest.extract_urls", "corpus_ingest.host_of",
              "news_catalog.match_host", "interaction.centroid_distance",
              "contagion.first_exposure_order", "stats_core.aic_from_rss",
              "stats_core.significance_stars"}


class Tracer:
    def __init__(self):
        self.stack = []      # open frames: [name, start, child_seconds]
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.counters = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def enter(self, name):
        frame = [name, perf(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame):
        duration = perf() - frame[1]
        self.stack.pop()
        agg = self.spans.get(frame[0])
        if agg is None:
            agg = self.spans[frame[0]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name, fn, pre=None, post=None):
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn, pre, post)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if post is not None:
                post(self, args, kwargs, result)
            return result
        return spanned

    def _generator_span(self, name, fn, pre, post):
        items_key = name + ".items"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.leave(frame)
                    self.count(items_key)
                    yield item
            finally:
                inner.close()
                if post is not None:
                    post(self, args, kwargs, None)
        return spanned

    def counted(self, name, fn):
        key = name + ".calls"
        counters = self.counters
        counters[key] = 0

        @functools.wraps(fn)
        def counted_call(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted_call


# --- hooks: work counts read where the work happens ------------------------

def _stream_pre(tracer, args, kwargs):
    """Make sure stream_comments counts into a ledger the tracer can read."""
    if len(args) < 3 and kwargs.get("ledger") is None:
        from newsgeo.corpus_ingest import StreamLedger
        kwargs = dict(kwargs, ledger=StreamLedger())
    return args, kwargs


def _stream_post(tracer, args, kwargs, _):
    ledger = args[2] if len(args) >= 3 else kwargs["ledger"]
    tracer.count("corpus_ingest.lines_parsed",
                 ledger.records + ledger.malformed)


def _pairs_pre(tracer, args, kwargs):
    corpus = args[0] if args else kwargs.pop("corpus")

    def replies():
        n = 0
        try:
            for rec in corpus:
                if rec.parent_id is not None and not rec.is_deleted_author:
                    n += 1
                yield rec
        finally:
            tracer.count("interaction.reply_records", n)
    return (replies(),) + tuple(args[1:]), kwargs


def _pairs_post(tracer, args, kwargs, pairs):
    tracer.count("interaction.pairs", len(pairs.counts))
    tracer.count("interaction.pairs_added", sum(pairs.counts.values()))


def _assign_post(tracer, args, kwargs, result):
    summary = result[1]
    tracer.count("geolocation.mapped_authors", summary.mapped_authors)
    tracer.count("geolocation.assigned", summary.assigned)


def _timelines_post(tracer, args, kwargs, timelines):
    tracer.count("diffusion.timelines", len(timelines))


def _network_pre(tracer, args, kwargs):
    timelines = args[0] if args else kwargs.pop("timelines")
    label = args[1] if len(args) > 1 else kwargs["news_type"]

    def of_label():
        n = 0
        try:
            for tl in timelines:
                n += tl.label == label
                yield tl
        finally:
            tracer.count("contagion.label_timelines", n)
    return (of_label(),) + tuple(args[1:]), kwargs


def _network_post(tracer, args, kwargs, graph):
    tracer.count("contagion.edges", len(graph.edges))
    tracer.count("contagion.qualifying_urls", graph.metadata["urls"])


HOOKS = {
    "corpus_ingest.stream_comments": (_stream_pre, _stream_post),
    "interaction.build_interaction_pairs": (_pairs_pre, _pairs_post),
    "geolocation.resolve_assignments": (None, _assign_post),
    "diffusion.build_url_timelines": (None, _timelines_post),
    "contagion.infer_state_network": (_network_pre, _network_post),
}


def install(tracer, package):
    """Replace each traced function under every name a module looks it up
    by, so calls through `from .x import f` imports are traced too."""
    wrapped = {}

    def wrapper_for(fn):
        if fn not in wrapped:
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
            if name in HOT_LEAVES:
                wrapped[fn] = tracer.counted(name, fn)
            else:
                wrapped[fn] = tracer.span(name, fn, *HOOKS.get(name, (None, None)))
        return wrapped[fn]

    def traced(fn):
        module = fn.__module__.rsplit(".", 1)[-1]
        if module not in LAYERS or not fn.__module__.startswith("newsgeo."):
            return False
        if module == "cli":
            # cli's own entry points are the stage span; its readers feed
            # other layers' generators and must show as child time
            return fn.__name__.startswith("_read")
        return not fn.__name__.startswith("_")

    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and traced(obj):
                setattr(module, attr, wrapper_for(obj))
    timeline = package.diffusion.UrlTimeline
    for method in ("distinct_units", "time_to_reach"):
        setattr(timeline, method, tracer.counted(f"diffusion.{method}",
                                                 getattr(timeline, method)))


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    frame = tracer.enter("cli.import")
    import newsgeo.cli
    tracer.leave(frame)
    install(tracer, newsgeo)
    frame = tracer.enter("cli.main")
    try:
        code = newsgeo.cli.main(cli_args)
    finally:
        tracer.leave(frame)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
