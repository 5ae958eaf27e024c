import pytest

from newsgeo.corpus_ingest import host_of
from newsgeo.errors import ConfigurationError, FormatError
from newsgeo.news_catalog import (
    classify_mentions,
    label_counts,
    load_catalog,
    match_host,
    validate_trust_scores,
)
from newsgeo.states import UrlMention


def mention(comment_id, url, author="alice", host=None):
    if host is None:
        host = url.split("//", 1)[1].split("/", 1)[0].lower()
        if host.startswith("www."):
            host = host[4:]
    return UrlMention(comment_id=comment_id, author=author, created_utc=1,
                      url=url, host=host)


class TestLoadCatalog:
    def test_paper_sized_fixture_counts(self, tmp_path):
        # 933 fake / 1801 lowcred / 110 satire, the published list sizes
        sizes = {"fake": 933, "lowcred": 1801, "satire": 110}
        files = []
        for label, size in sizes.items():
            path = tmp_path / f"{label}.txt"
            path.write_text("".join(f"{label}{i}.example\n" for i in range(size)))
            files.append((str(path), label))
        catalog = load_catalog(files)
        counts = label_counts(catalog)
        assert counts["fake"] == 933
        assert counts["lowcred"] == 1801
        assert counts["satire"] == 110

    def test_conflict_resolves_to_most_severe(self, catalog):
        # sharedsite.org is listed both fake and reputable
        assert catalog["sharedsite.org"] == "fake"

    def test_severity_is_idempotent_under_reload(self, catalog, tmp_path):
        # re-load the fixture's own files in path order; labels come from
        # names
        files = [(str(p), p.stem) for p in sorted(tmp_path.glob("*.txt"))]
        reloaded = load_catalog(files)
        assert reloaded == catalog

    def test_empty_catalog_is_configuration_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ConfigurationError):
            load_catalog([(str(path), "fake")])

    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "fake.txt"
        path.write_bytes(b"fake.example\n\xff\xfe\n")
        with pytest.raises(FormatError, match=f"{path} is not UTF-8"):
            load_catalog([(str(path), "fake")])

    def test_byte_order_mark_dropped(self, tmp_path):
        # spreadsheet programs lead a UTF-8 file with a byte-order mark
        path = tmp_path / "fake.txt"
        path.write_bytes(b"\xef\xbb\xbfinfowars.com\nnaturalnews.com\n")
        catalog = load_catalog([(str(path), "fake")])
        assert sorted(catalog) == ["infowars.com", "naturalnews.com"]
        assert match_host("infowars.com", catalog) == "infowars.com"

    def test_randomized_overlaps_match_set_algebra(self, tmp_path, rng):
        pool = [f"d{i}.com" for i in range(300)]
        picks = {}
        files = []
        for label in ("fake", "lowcred", "satire", "reputable"):
            chosen = sorted(rng.choice(pool, size=120, replace=False))
            picks[label] = set(chosen)
            path = tmp_path / f"{label}.txt"
            path.write_text("\n".join(chosen) + "\n")
            files.append((str(path), label))
        catalog = load_catalog(files)
        # oracle: brute-force severity resolution over the planted sets
        expected = {}
        for label in ("reputable", "satire", "lowcred", "fake"):
            for d in picks[label]:
                expected[d] = label
        assert catalog == expected


class TestNormalizeDomain:
    """URL -> catalog domain, as ingest (host_of) and classify (match_host)
    compose it."""

    def test_subdomain_suffix_match(self, catalog):
        url = "https://www.nytimes.com/2019/x"
        assert match_host(host_of(url), catalog) == "nytimes.com"

    def test_dot_boundary_enforced(self, catalog):
        fake = {"breitbart.com": "fake"}
        url = "https://notbreitbart.com/x"
        assert match_host(host_of(url), fake) is None

    def test_exhaustive_suffix_oracle(self, rng):
        entries = {f"base{i}.com": "fake" for i in range(50)}
        entries.update({f"deep.base{i}.com": "lowcred" for i in range(0, 50, 5)})
        for _ in range(500):
            i = int(rng.integers(0, 50))
            depth = int(rng.integers(0, 3))
            host = ".".join([f"s{j}" for j in range(depth)] +
                            (["deep"] if rng.random() < 0.5 else []) +
                            [f"base{i}.com"])
            url = f"https://{host}/x"
            # oracle: test every dot suffix, keep the longest catalog hit
            labels = host.split(".")
            expected = None
            for j in range(len(labels)):
                cand = ".".join(labels[j:])
                if cand in entries:
                    expected = cand
                    break
            assert match_host(host_of(url), entries) == expected


class TestClassifyMentions:
    def test_two_same_type_urls_one_comment(self, catalog):
        mentions = [
            mention("c1", "https://fakery.com/a"),
            mention("c1", "https://fakery.com/b"),
        ]
        tallies = {}
        out = list(classify_mentions(mentions, catalog, tallies))
        assert len(out) == 2
        counts = tallies["fake"].counts()
        assert counts["unique_comments"] == 1
        assert counts["unique_sites"] == 1
        assert counts["unique_urls"] == 2

    def test_mention_with_no_author_is_no_user(self, catalog):
        # ingest gives a comment by the deleted-author sentinel no author
        mentions = [mention("c1", "https://fakery.com/a"),
                    mention("c2", "https://fakery.com/b", author="bob"),
                    mention("c3", "https://fakery.com/c", author=None),
                    mention("c4", "https://fakery.com/a")]
        tallies = {}
        out = list(classify_mentions(mentions, catalog, tallies))
        assert [nc.author for nc in out] == ["alice", "bob", None, "alice"]
        counts = tallies["fake"].counts()
        assert counts["unique_users"] == 2
        assert counts["unique_comments"] == 4

    def test_classification_is_order_independent(self, catalog):
        mentions = [mention(f"c{i}", f"https://fakery.com/{i}") for i in range(10)]
        forward = [nc.label for nc in classify_mentions(mentions, catalog)]
        backward = [nc.label for nc in
                    classify_mentions(list(reversed(mentions)), catalog)]
        assert forward == list(reversed(backward))

    def test_planted_per_type_counts(self, catalog, rng):
        type_domains = {"fake": "hoax.net", "lowcred": "clickbait.io",
                        "satire": "parody.news", "reputable": "bbc.co.uk"}
        planted = {label: int(rng.integers(5, 40)) for label in type_domains}
        mentions = []
        cid = 0
        for label, n in planted.items():
            for _ in range(n):
                mentions.append(mention(f"c{cid}",
                                        f"https://{type_domains[label]}/{cid}"))
                cid += 1
        tallies = {}
        list(classify_mentions(mentions, catalog, tallies))
        for label, n in planted.items():
            assert tallies[label].counts()["unique_comments"] == n

    def test_tally_bounds_invariants(self, catalog, rng):
        mentions = [mention(f"c{int(rng.integers(0, 30))}",
                            f"https://fakery.com/{int(rng.integers(0, 10))}")
                    for _ in range(200)]
        tallies = {}
        out = list(classify_mentions(mentions, catalog, tallies))
        counts = tallies["fake"].counts()
        assert counts["unique_comments"] <= len(out)
        assert counts["unique_urls"] >= counts["unique_sites"]


class TestTrustScores:
    def test_all_half_scores(self, catalog):
        scores = {d: 0.5 for d in catalog}
        means = validate_trust_scores(catalog, scores)
        for label in ("fake", "lowcred", "satire", "reputable"):
            assert means[label] == pytest.approx(0.5)

    def test_random_fixture_matches_hand_means(self, catalog, rng):
        scores = {d: float(rng.random()) for d in catalog}
        means = validate_trust_scores(catalog, scores)
        by_label = {}
        for d, s in scores.items():
            by_label.setdefault(catalog[d], []).append(s)
        for label, vals in by_label.items():
            assert means[label] == pytest.approx(sum(vals) / len(vals))

    def test_missing_label_reported_not_fatal(self):
        cat = {"a.com": "fake", "b.com": "reputable"}
        means = validate_trust_scores(cat, {"a.com": 0.1})
        assert means["fake"] == pytest.approx(0.1)
        assert means["reputable"] is None
