import itertools
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from math import comb, gcd
from pathlib import Path

import pytest

from signedsum import (Family, IntegerSet, Operator, SearchSpace,
                       StructureKind, check_direct, classify_structure,
                       random_probe, search, sumset_cardinality, sweep)
from signedsum.engine import admit_walk, prefix_cardinalities
from signedsum.search import (CSV_HEADER, EMIT_MODES, FILTER_IDS, ProbeSummary,
                              SearchRecord)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def enumerate_space(space):
    """Every candidate of ``space`` that passes its filter, in lexicographic
    order, from ``itertools`` rather than the code under test: the family's
    fixed elements, then each subset of [1, M] of the remaining size."""
    free_sets = itertools.combinations(range(1, space.max_element + 1),
                                       space.free)
    return [space.family.fixed + free for free in free_sets
            if space.filter_id is None or gcd(*free) == 1]


def _csv(records):
    """The CSV lines of ``records``, each with its newline."""
    return [r.to_csv_row() + "\n" for r in records]


def _lines(text):
    """CSV text as a list of lines, so that a failed comparison reports the
    first line that differs instead of diffing two long strings."""
    return text.splitlines(keepends=True)


def space_h4_positive(max_element=20):
    return SearchSpace(k=5, h=4, max_element=max_element,
                       family=Family.POSITIVE)


@pytest.fixture
def workers_from_shard_0(monkeypatch):
    """A sweep with two or more workers hands them every shard from the
    first on, as one that has already run for ``WORKERS_AFTER_S`` would.
    Every sweep in these tests ends well before the real constant."""
    monkeypatch.setattr(search, "WORKERS_AFTER_S", 0)


def _clock_reaching_workers_after(shards):
    """A stand-in for ``search.perf_counter`` under which a sweep runs
    ``shards`` shards in the parent and hands the rest to its workers: it
    reads 0 when the sweep starts and before each of those shards, and
    ``WORKERS_AFTER_S`` from then on."""
    calls = itertools.count()
    return lambda: search.WORKERS_AFTER_S * (next(calls) > shards)


class TestSearchSpace:
    def test_size_and_shards(self):
        space = space_h4_positive()
        assert space.size() == 15504
        zero = SearchSpace(k=5, h=4, max_element=12, family=Family.ZERO_BASED)
        assert zero.size() == 495
        assert all(key[0] == 0 for key in zero.shard_keys())

    def test_candidates_are_lexicographic(self):
        # each shard holds only the sets that begin with its key, and the
        # shards joined in key order give a strictly increasing stream
        for filter_id in (None, "primitive"):
            space = SearchSpace(k=4, h=3, max_element=7,
                                family=Family.POSITIVE, filter_id=filter_id)
            listed = []
            for key in space.shard_keys():
                shard = list(space.shard_candidates(key))
                assert all(c[:len(key)] == key for c in shard), key
                listed += shard
            assert listed == sorted(set(listed)), filter_id
            assert len(listed) == space.size(), filter_id

    def test_fold_window(self):
        with pytest.raises(ValueError, match="3 <= h <= k-1"):
            SearchSpace(k=5, h=5, max_element=10, family=Family.POSITIVE)
        with pytest.raises(ValueError, match="3 <= h <= k-1"):
            SearchSpace(k=5, h=2, max_element=10, family=Family.POSITIVE)

    def test_space_smaller_than_k(self):
        with pytest.raises(ValueError, match="space smaller than k"):
            SearchSpace(k=4, h=3, max_element=2, family=Family.POSITIVE)

    def test_family_windows(self):
        with pytest.raises(ValueError, match="k >= 5"):
            SearchSpace(k=4, h=3, max_element=10, family=Family.ZERO_BASED)

    def test_unknown_filter(self):
        with pytest.raises(ValueError, match="unknown filter"):
            SearchSpace(k=5, h=4, max_element=10, family=Family.POSITIVE,
                        filter_id="nope")


class TestSweep:
    def test_h4_positive_sweep(self):
        summary = sweep(space_h4_positive())
        assert summary.visited == 15504
        assert summary.min_cardinality == 25
        assert summary.violation_count == 0
        assert {r.set.elements for r in summary.equality_sets} == {
            (1, 3, 5, 7, 9), (2, 6, 10, 14, 18)}
        for record in summary.equality_sets:
            assert record.structure.kind is StructureKind.ODD_AP_DILATE

    def test_h4_zero_sweep_small(self):
        # actual equality cases at M=12: three dilates of [0,4] plus the
        # two bound-attaining sets outside the dilate family
        summary = sweep(SearchSpace(k=5, h=4, max_element=12,
                                    family=Family.ZERO_BASED))
        assert summary.visited == 495
        assert summary.violation_count == 0
        assert {r.set.elements for r in summary.equality_sets} == {
            (0, 1, 2, 3, 4), (0, 2, 4, 6, 8), (0, 3, 6, 9, 12),
            (0, 1, 2, 4, 6), (0, 2, 4, 8, 12)}

    def test_h3_sweep_equalities_classify_as_odd_dilates(self):
        summary = sweep(SearchSpace(k=4, h=3, max_element=16,
                                    family=Family.POSITIVE))
        assert summary.violation_count == 0
        assert {r.set.elements for r in summary.equality_sets} == {
            (1, 3, 5, 7), (2, 6, 10, 14)}

    def test_budget_checked_up_front(self):
        with pytest.raises(ValueError, match="budget exceeded"):
            sweep(space_h4_positive(), budget=1000)

    def test_unknown_emit_mode_refused_before_admission(self, monkeypatch):
        monkeypatch.setattr(SearchSpace, "shard_keys",
                            lambda self: pytest.fail("shard heads built"))
        # over budget, yet the emit mode is what the sweep reports
        with pytest.raises(ValueError,
                           match="^unknown emit mode 'nope'$"):
            sweep(space_h4_positive(), budget=1000, emit="nope")

    def test_dp_size_refused_before_any_shard(self, monkeypatch):
        monkeypatch.setattr(SearchSpace, "shard_keys",
                            lambda self: pytest.fail("shard heads built"))
        space = SearchSpace(k=4, h=3, max_element=10**8,
                            family=Family.POSITIVE)
        with pytest.raises(ValueError, match="range overflow"):
            sweep(space, budget=10**40, emit="all", on_record=lambda r: None)

    def test_admission_boundary_is_the_walks_own(self):
        # M* is the largest M with (h + 1)(2hM + 1) <= 2**30 at k=4, h=3;
        # nothing is walked at M*, whose rows would take about 128 MiB
        top = 44_739_242
        assert 4 * (6 * top + 1) <= 2**30 < 4 * (6 * (top + 1) + 1)
        SearchSpace(k=4, h=3, max_element=top,
                    family=Family.POSITIVE).admit(10**40)
        assert admit_walk(3, 4, top) == 3 * top
        over = SearchSpace(k=4, h=3, max_element=top + 1,
                           family=Family.POSITIVE)
        with pytest.raises(ValueError, match="range overflow"):
            over.admit(10**40)
        with pytest.raises(ValueError, match="range overflow"):
            prefix_cardinalities((1, 2), 3, top + 1, 4)

    def test_deterministic_summaries(self):
        first = sweep(space_h4_positive(16))
        second = sweep(space_h4_positive(16))
        assert first.to_dict() == second.to_dict()

    @pytest.mark.usefixtures("workers_from_shard_0")
    def test_worker_count_does_not_change_results(self):
        space = space_h4_positive(16)
        sequential = sweep(space, workers=1)
        parallel = sweep(space, workers=3)
        assert sequential.to_dict() == parallel.to_dict()

    def test_record_stream_order_matches_enumeration(self):
        space = SearchSpace(k=4, h=3, max_element=10, family=Family.POSITIVE)
        seen: list[tuple[int, ...]] = []
        sweep(space, emit="all", on_record=lambda r: seen.append(r.set.elements))
        assert seen == enumerate_space(space)

    def test_emit_interesting_streams_only_equalities_here(self):
        seen = []
        sweep(space_h4_positive(), emit="interesting",
              on_record=lambda r: seen.append(r.set.elements))
        assert seen == [(1, 3, 5, 7, 9), (2, 6, 10, 14, 18)]

    @pytest.mark.usefixtures("workers_from_shard_0")
    def test_emit_none_suppresses_stream_but_not_summary(self):
        seen = []
        summary = sweep(space_h4_positive(), emit="none",
                        on_record=lambda r: seen.append(r))
        assert seen == []
        assert summary.equality_count == 2
        # both consumers at once, at one and two workers: neither is called
        interesting = sweep(space_h4_positive(), emit="interesting")
        for workers in (1, 2):
            summary = sweep(space_h4_positive(), emit="none", workers=workers,
                            on_record=seen.append, csv_sink=seen.append)
            assert seen == []
            assert summary == interesting

    def test_primitive_filter_drops_dilates(self):
        space = SearchSpace(k=5, h=4, max_element=20, family=Family.POSITIVE,
                            filter_id="primitive")
        summary = sweep(space)
        assert summary.visited < 15504
        assert {r.set.elements for r in summary.equality_sets} == {
            (1, 3, 5, 7, 9)}

    def test_csv_row_format(self):
        summary = sweep(space_h4_positive())
        row = summary.equality_sets[0].to_csv_row()
        assert row == "1,3,5,7,9;25;0;true;ODD_AP_DILATE;1"
        assert CSV_HEADER == "set;cardinality;slack;equality;structure_kind;d"

    def test_record_json_bytes(self):
        # no CLI report prints a record unless a violation exists
        records = []
        sweep(space_h4_positive(18), emit="all", on_record=records.append)
        [record] = [r for r in records if r.set.elements == (2, 6, 10, 14, 18)]
        assert json.dumps(record.to_dict()) == (
            '{"set": [2, 6, 10, 14, 18], "cardinality": 25, "slack": 0, '
            '"equality": true, "structure": {"kind": "ODD_AP_DILATE", '
            '"d": 2}}')


class TestRandomProbe:
    def test_reproducible_from_seed(self):
        space = SearchSpace(k=6, h=4, max_element=30, family=Family.POSITIVE)
        first = random_probe(space, 300, seed=7)
        second = random_probe(space, 300, seed=7)
        assert first.to_dict() == second.to_dict()
        assert first.min_slack is not None

    def test_different_seeds_usually_differ(self):
        space = SearchSpace(k=6, h=4, max_element=30, family=Family.POSITIVE)
        a = random_probe(space, 100, seed=1)
        b = random_probe(space, 100, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_no_violations_on_positive_window(self):
        space = SearchSpace(k=7, h=5, max_element=40, family=Family.POSITIVE)
        summary = random_probe(space, 500, seed=1)
        assert summary.violation_count == 0

    def test_equality_probes_classify_as_dilates(self):
        # C(10,5) = 252 candidates, so 2000 seeded trials hit {1,3,5,7,9}
        space = SearchSpace(k=5, h=4, max_element=10, family=Family.POSITIVE)
        summary = random_probe(space, 2000, seed=7)
        assert summary.min_slack == 0
        assert summary.equality_count >= 1
        for record in summary.equality_sets:
            assert record.structure.kind is StructureKind.ODD_AP_DILATE
            assert record.set.elements == (1, 3, 5, 7, 9)

    def test_zero_trials_rejected(self):
        space = SearchSpace(k=6, h=4, max_element=30, family=Family.POSITIVE)
        with pytest.raises(ValueError, match="trials"):
            random_probe(space, 0, seed=1)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_matches_check_direct_reference(self, family, k):
        for seed in (1, 2, 3, 11):
            for max_element, primitive in ((k + 4, None), (k + 4, "primitive"),
                                           (3 * k, None)):
                for h in sorted({3, k - 1}):
                    space = SearchSpace(k=k, h=h, max_element=max_element,
                                        family=family, filter_id=primitive)
                    got = random_probe(space, 150, seed)
                    reference = _reference_probe(space, 150, seed)
                    assert got.to_dict() == reference.to_dict()
                    assert got.measured == reference.measured

    def test_measured_counts_only_draws_that_pass_the_filter(self):
        space = SearchSpace(k=5, h=3, max_element=12, family=Family.ZERO_BASED,
                            filter_id="primitive")
        summary = random_probe(space, 200, seed=1)
        assert (summary.trials, summary.measured) == (200, 192)
        assert "measured" not in summary.to_dict()
        unfiltered = SearchSpace(k=5, h=3, max_element=12,
                                 family=Family.ZERO_BASED)
        assert random_probe(unfiltered, 200, seed=1).measured == 200


def _reference_probe(space, trials, seed):
    """random_probe as first written: check_direct on every sample."""
    rng = random.Random(seed)
    m = space.max_element
    measured = 0
    min_slack = None
    violations, equality_sets = [], []
    for _ in range(trials):
        if space.family is Family.POSITIVE:
            candidate = tuple(sorted(rng.sample(range(1, m + 1), space.k)))
        else:
            candidate = (0,) + tuple(sorted(rng.sample(range(1, m + 1),
                                                       space.k - 1)))
        if space.filter_id == "primitive" and gcd(*candidate) != 1:
            continue
        measured += 1
        a = IntegerSet(candidate)
        report = check_direct(a, space.h)
        if min_slack is None or report.slack < min_slack:
            min_slack = report.slack
        if report.slack <= 0:
            record = SearchRecord(a, report.cardinality, report.slack,
                                  report.equality, classify_structure(a))
            (equality_sets if record.equality else violations).append(record)
    return ProbeSummary(space, trials, measured, seed, min_slack,
                        len(violations), violations, len(equality_sets),
                        equality_sets)


SMALL_SPACES = [
    SearchSpace(k=5, h=4, max_element=11, family=Family.POSITIVE),
    SearchSpace(k=5, h=3, max_element=10, family=Family.POSITIVE,
                filter_id="primitive"),
    SearchSpace(k=6, h=5, max_element=12, family=Family.ZERO_BASED),
    SearchSpace(k=6, h=4, max_element=12, family=Family.ZERO_BASED,
                filter_id="primitive"),
    SearchSpace(k=6, h=5, max_element=6, family=Family.POSITIVE),     # M = free
    SearchSpace(k=7, h=5, max_element=6, family=Family.ZERO_BASED),   # M = free
]


def _record_stream(space, workers, emit):
    records = []
    summary = sweep(space, workers=workers, emit=emit,
                    on_record=lambda r: records.append(r.to_dict()))
    return summary.to_dict(), records


class TestPrefixSharedSweep:
    @pytest.mark.parametrize("space", SMALL_SPACES)
    def test_every_record_matches_the_per_set_dp(self, space):
        records = []
        summary = sweep(space, emit="all", on_record=records.append)
        kept = enumerate_space(space)
        assert [r.set.elements for r in records] == kept
        assert summary.visited == len(kept)
        bound = space.bound().value
        for r in records:
            card = sumset_cardinality(r.set, space.h, Operator.RESTRICTED_SIGNED)
            assert r.cardinality == card
            assert r.slack == card - bound
        assert summary.min_cardinality == min(r.cardinality for r in records)

    def test_shard_keys_are_two_element_heads(self):
        positive = SearchSpace(k=7, h=5, max_element=20, family=Family.POSITIVE)
        keys = positive.shard_keys()
        assert keys == sorted(keys)
        assert keys[0] == (1, 2) and keys[-1] == (14, 15)
        zero = SearchSpace(k=7, h=5, max_element=21, family=Family.ZERO_BASED)
        assert zero.shard_keys()[0] == (0, 1, 2)
        assert zero.shard_keys()[-1] == (0, 16, 17)
        for space in (positive, zero):
            joined = [c for key in space.shard_keys()
                      for c in space.shard_candidates(key)]
            assert joined == enumerate_space(space)

    def test_largest_shard_is_small(self):
        space = SearchSpace(k=7, h=5, max_element=20, family=Family.POSITIVE)
        sizes = [sum(1 for _ in space.shard_candidates(key))
                 for key in space.shard_keys()]
        assert sum(sizes) == space.size() == 77520
        assert max(sizes) / sum(sizes) < 0.12

    @pytest.mark.parametrize("space", [
        SearchSpace(k=5, h=4, max_element=12, family=Family.POSITIVE),
        SearchSpace(k=6, h=4, max_element=13, family=Family.ZERO_BASED,
                    filter_id="primitive"),
    ])
    @pytest.mark.usefixtures("workers_from_shard_0")
    def test_worker_count_does_not_change_summary_or_stream(self, space):
        for emit in ("all", "interesting", "none"):
            first = _record_stream(space, 1, emit)
            assert _record_stream(space, 2, emit) == first
            assert _record_stream(space, 3, emit) == first
            assert first[0]["equality_count"] >= 1
            assert (first[1] == []) == (emit == "none")

    @pytest.mark.parametrize("emit", ["all", "interesting", "none"])
    def test_shards_return_only_ints_and_int_tuples(self, monkeypatch, emit):
        # and their CSV text, a str that is empty unless a CSV sink takes it
        space = SearchSpace(k=6, h=4, max_element=12, family=Family.ZERO_BASED,
                            filter_id="primitive")
        bound = space.bound().value
        shard = search._sweep_shard
        results = []

        def spy(args):
            results.append(shard(args))
            return results[-1]

        monkeypatch.setattr(search, "_sweep_shard", spy)
        for consumer in ("on_record", "csv_sink"):
            results.clear()
            sweep(space, emit=emit, **{consumer: lambda x: None})
            rows_seen = 0
            for min_card, rows, measured, text in results:
                assert type(min_card) in (int, type(None))
                assert type(measured) is int
                assert type(text) is str
                lines = text.count("\n")
                if consumer == "on_record" or emit == "none":
                    assert lines == 0
                else:
                    assert lines == (measured if emit == "all" else len(rows))
                for candidate, card in rows:
                    assert type(candidate) is tuple
                    assert all(type(x) is int for x in candidate)
                    assert type(card) is int
                    # every row crosses only for records of every set
                    assert (emit == "all" and consumer == "on_record"
                            or card <= bound)
                rows_seen += len(rows)
            assert rows_seen > 0

    def test_emit_all_without_consumer_ships_only_kept_rows(self,
                                                             monkeypatch):
        space = SearchSpace(k=6, h=4, max_element=13, family=Family.ZERO_BASED)
        bound = space.bound().value
        shard = search._sweep_shard
        shipped = []

        def spy(args):
            result = shard(args)
            shipped.extend(card for _, card in result[1])
            return result

        monkeypatch.setattr(search, "_sweep_shard", spy)
        summary = sweep(space, emit="all")
        assert shipped and max(shipped) <= bound
        assert summary.to_dict() == sweep(space, emit="interesting").to_dict()

    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    @pytest.mark.parametrize("family, max_element", [
        (Family.POSITIVE, 12), (Family.ZERO_BASED, 13)])
    @pytest.mark.parametrize("emit", ["all", "interesting"])
    def test_many_heads_are_the_merge_of_one_head_each(self, emit, family,
                                                        max_element,
                                                        filter_id):
        space = SearchSpace(k=6, h=4, max_element=max_element, family=family,
                            filter_id=filter_id)
        # the arguments sweep() passes for this emit mode, with and
        # without records of every set and a CSV sink
        limit = None if emit == "all" else search._prune_limit(space)
        keys = space.shard_keys()
        for records, csv in ((emit == "all", True), (False, False)):
            singles = [search._sweep_shard((space, (key,), limit, records,
                                            csv)) for key in keys]
            min_card, rows, measured, text = search._sweep_shard(
                (space, keys, limit, records, csv))
            assert min_card == min(s[0] for s in singles if s[0] is not None)
            assert rows == [row for s in singles for row in s[1]]
            assert measured == sum(s[2] for s in singles)
            assert _lines(text) == _lines("".join(s[3] for s in singles))
            assert rows and bool(text) == csv
            assert any(s[0] is None for s in singles) == (emit != "all")

    def test_records_stream_before_the_last_shard_runs(self, monkeypatch):
        space = SearchSpace(k=5, h=4, max_element=10, family=Family.POSITIVE)
        shards_run = 0
        shard = search._sweep_shard

        def counted(args):
            nonlocal shards_run
            shards_run += 1
            return shard(args)

        monkeypatch.setattr(search, "_sweep_shard", counted)
        seen_at: list[int] = []
        sweep(space, emit="all", on_record=lambda r: seen_at.append(shards_run))
        assert shards_run == len(space.shard_keys()) > 1
        assert seen_at[0] == 1
        assert seen_at == sorted(seen_at)
        # the CSV sink gets one block per shard, each before the next runs
        shards_run = 0
        blocks: list[str] = []
        seen_at.clear()

        def sink(text):
            blocks.append(text)
            seen_at.append(shards_run)

        sweep(space, emit="all", csv_sink=sink)
        assert seen_at == list(range(1, len(space.shard_keys()) + 1))
        assert all(b.endswith("\n") for b in blocks)


class TestCsvSink:
    # 36 shards each, and 28 at the smaller M, which three workers do not
    # divide
    @pytest.mark.parametrize("family, max_element", [
        (Family.POSITIVE, 12), (Family.ZERO_BASED, 11),
        (Family.POSITIVE, 11), (Family.ZERO_BASED, 10)])
    @pytest.mark.usefixtures("workers_from_shard_0")
    def test_shard_csv_is_the_records_csv(self, family, max_element,
                                          monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # 3 workers anywhere
        kinds = set()
        for filter_id, emit in itertools.product(FILTER_IDS, EMIT_MODES):
            space = SearchSpace(k=5, h=4, max_element=max_element,
                                family=family, filter_id=filter_id)
            records = []
            summary = sweep(space, emit=emit, on_record=records.append)
            expected = _csv(records)
            for workers in (1, 2, 3):
                blocks = []
                assert sweep(space, workers=workers, emit=emit,
                             csv_sink=blocks.append).to_dict() == \
                    summary.to_dict(), (space, emit, workers)
                lines = _lines("".join(blocks))
                assert lines == expected, (space, emit, workers)
            kinds.update(r.structure.kind for r in records)
        assert kinds == ({StructureKind.ODD_AP_DILATE, StructureKind.GENERAL_AP,
                          StructureKind.NONE} if family is Family.POSITIVE
                         else {StructureKind.ZERO_AP_DILATE,
                               StructureKind.NONE})

    def test_violations_with_records_and_csv_together(self, monkeypatch):
        # a bound of 33, not 25, makes the sets of 25 to 31 sums violations
        # (structured or not) and five unstructured sets equality cases
        space = SearchSpace(k=5, h=4, max_element=10, family=Family.POSITIVE)
        raised = space.bound()._replace(value=space.bound().value + 8)
        monkeypatch.setattr(SearchSpace, "bound", lambda self: raised)
        for emit in ("all", "interesting"):
            records, blocks = [], []
            summary = sweep(space, emit=emit, on_record=records.append,
                            csv_sink=blocks.append)
            assert summary.violation_count > 0
            assert len(records) == (space.size() if emit == "all" else
                                    summary.violation_count
                                    + summary.equality_count)
            assert _lines("".join(blocks)) == _csv(records)


def _reference_records(space, candidates):
    """The record of each candidate, by the per-set DP and
    ``classify_structure``, not by the walk."""
    bound = space.bound().value
    records = []
    for candidate in candidates:
        a = IntegerSet(candidate)
        card = sumset_cardinality(a, space.h, Operator.RESTRICTED_SIGNED)
        records.append(SearchRecord(a, card, card - bound, card == bound,
                                    classify_structure(a)))
    return records


# (measured for emit all, interesting and none, as each of the last two
# prunes; min cardinality; equality sets), as found before the leaf loop
LEAF_LOOP_SPACES = {
    (Family.POSITIVE, None): (5, 4, 12, (792, 329, 329), 25,
                              [(1, 3, 5, 7, 9)]),
    (Family.POSITIVE, "primitive"): (5, 4, 12, (786, 323, 323), 25,
                                     [(1, 3, 5, 7, 9)]),
    (Family.ZERO_BASED, None): (6, 4, 13, (1287, 23, 23), 29,
                                [(0, 1, 2, 3, 4, 5), (0, 2, 4, 6, 8, 10)]),
    (Family.ZERO_BASED, "primitive"): (6, 4, 13, (1281, 21, 21), 29,
                                       [(0, 1, 2, 3, 4, 5)]),
}


class TestLeafLoop:
    @pytest.mark.usefixtures("workers_from_shard_0")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("emit", EMIT_MODES)
    @pytest.mark.parametrize("family, filter_id", list(LEAF_LOOP_SPACES))
    def test_csv_records_and_summary_match_the_per_set_dp(
            self, family, filter_id, emit, workers):
        k, h, m, measured, low, equal = LEAF_LOOP_SPACES[family, filter_id]
        space = SearchSpace(k=k, h=h, max_element=m, family=family,
                            filter_id=filter_id)
        everything = _reference_records(space, enumerate_space(space))
        expected = {"all": everything, "none": [],
                    "interesting": [r for r in everything if r.slack <= 0]}
        for consumers in ("records", "csv", "both"):
            records, blocks = [], []
            summary = sweep(
                space, workers=workers, emit=emit,
                on_record=records.append if consumers != "csv" else None,
                csv_sink=blocks.append if consumers != "records" else None)
            assert summary.min_cardinality == low
            assert [r.set.elements for r in summary.equality_sets] == equal
            assert summary.violations == []
            assert summary.measured == measured[
                ("all", "interesting", "none").index(emit)], consumers
            if consumers != "csv":
                assert records == expected[emit]
            if consumers != "records":
                assert _lines("".join(blocks)) == _csv(expected[emit])

    def test_a_prefix_with_a_common_factor_keeps_its_coprime_leaves(self):
        # (0, 2, 4, 6) has gcd 2: only its odd leaves are primitive, and
        # its even leaf 8 would extend it as a progression
        for filter_id, leaves in ((None, range(7, 13)),
                                  ("primitive", (7, 9, 11))):
            space = SearchSpace(k=5, h=4, max_element=12,
                                family=Family.ZERO_BASED, filter_id=filter_id)
            expected = _reference_records(
                space, [(0, 2, 4, 6, a) for a in leaves])
            min_card, rows, measured, text = search._sweep_shard(
                (space, [(0, 2, 4, 6)], None, True, True))
            assert rows == [(r.set.elements, r.cardinality) for r in expected]
            assert measured == len(expected)
            assert min_card == min(r.cardinality for r in expected)
            assert _lines(text) == _csv(expected)
        # the same prefix reached by the walk from its shard's head
        records = []
        sweep(space, emit="all", on_record=records.append)
        assert [r.set.elements for r in records
                if r.set.elements[:4] == (0, 2, 4, 6)] == [
            (0, 2, 4, 6, a) for a in (7, 9, 11)]

    @pytest.mark.parametrize("family, head, kind", [
        (Family.POSITIVE, (1, 3, 5, 7), StructureKind.ODD_AP_DILATE),
        (Family.POSITIVE, (3, 9, 15, 21), StructureKind.ODD_AP_DILATE),
        (Family.POSITIVE, (2, 3, 4, 5), StructureKind.GENERAL_AP),
        (Family.POSITIVE, (2, 4, 6, 8), StructureKind.GENERAL_AP),
        (Family.ZERO_BASED, (0, 1, 2, 3), StructureKind.ZERO_AP_DILATE),
        (Family.ZERO_BASED, (0, 3, 6, 9), StructureKind.ZERO_AP_DILATE),
        (Family.POSITIVE, (1, 2, 4, 8), StructureKind.NONE),
    ])
    def test_the_leaf_that_extends_a_progression_is_classified(
            self, family, head, kind):
        space = SearchSpace(k=5, h=4, max_element=30, family=family)
        expected = _reference_records(
            space, [head + (a,) for a in range(head[-1] + 1, 31)])
        for records in (True, False):
            min_card, rows, measured, text = search._sweep_shard(
                (space, [head], None, records, True))
            assert _lines(text) == _csv(expected)
            assert measured == len(expected)
            assert rows == [(r.set.elements, r.cardinality) for r in expected
                            if records or r.slack <= 0]
        kinds = {r.structure.kind for r in expected}
        assert kinds == {kind, StructureKind.NONE}

    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    @pytest.mark.parametrize("family", list(Family))
    def test_probe_heads_are_whole_candidates(self, family, filter_id):
        space = SearchSpace(k=6, h=4, max_element=16, family=family,
                            filter_id=filter_id)
        rng = random.Random(3)
        heads = [space.family.fixed
                 + tuple(sorted(rng.sample(range(1, 17), space.free)))
                 for _ in range(150)]
        heads += [space.family.fixed + tuple(range(2, 2 * space.free + 1, 2))]
        kept = [c for c in heads if filter_id is None or gcd(*c) == 1]
        expected = _reference_records(space, kept)
        assert len(kept) < len(heads) or filter_id is None
        min_card, rows, measured, text = search._sweep_shard(
            (space, heads, None, True, True))
        assert rows == [(r.set.elements, r.cardinality) for r in expected]
        assert measured == len(kept)
        assert min_card == min(r.cardinality for r in expected)
        assert _lines(text) == _csv(expected)
        # a probe measures its draws as one such shard
        probe = random_probe(space, 150, 3)
        draws = _reference_records(space, [
            c for c in heads[:150] if filter_id is None or gcd(*c) == 1])
        assert probe.measured == len(draws)
        assert probe.equality_sets == [r for r in draws if r.equality]
        assert probe.min_slack == min(r.slack for r in draws)


def _every_small_space():
    """Both families, k 4..7, every h, the primitive filter, and M from
    the free count up: M < 2k-1 leaves the positive family with no
    equality set, and its minimum above the bound."""
    for family in Family:
        for k in range(4, 8):
            free = k - len(family.fixed)
            for max_element in sorted({free, 2 * k - 2, 2 * k + 1}):
                for h in range(3, k):
                    for filter_id in FILTER_IDS:
                        try:
                            yield SearchSpace(k=k, h=h, max_element=max_element,
                                              family=family,
                                              filter_id=filter_id)
                        except ValueError:  # outside the family's window
                            pass


def _assert_pruned_sweeps_match_unpruned(space, workers):
    records = []
    reference = sweep(space, emit="all", on_record=records.append)
    assert reference.measured == reference.visited
    expected = reference.to_dict()
    interesting = [r.to_dict() for r in records if r.slack <= 0]
    for emit in EMIT_MODES:
        seen = []
        summary = sweep(space, workers=workers, emit=emit,
                        on_record=lambda r: seen.append(r.to_dict()))
        assert summary.to_dict() == expected, (space, emit)
        if emit == "interesting":
            assert seen == interesting, space
        elif emit == "none":
            assert seen == []
    summary = sweep(space, workers=workers)
    assert summary.to_dict() == expected, space
    assert summary.measured <= summary.visited
    return summary


def _assert_shard_8_fails_in_a_worker(monkeypatch):
    """A two-worker sweep of k=6, h=4, M=12 whose shard 8, head (2, 4),
    raises in a worker raises that error here, from a ``RuntimeError`` that
    names the shard and holds the worker's traceback, and leaves no child
    process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    shard = search._sweep_shard

    def failing(args):
        if args[1][0] == (2, 4):
            raise ValueError("shard (2, 4) failed")
        return shard(args)

    monkeypatch.setattr(search, "_sweep_shard", failing)
    space = SearchSpace(k=6, h=4, max_element=12, family=Family.POSITIVE)
    with pytest.raises(ValueError, match=r"shard \(2, 4\) failed") as err:
        sweep(space, workers=2, emit="all", csv_sink=len)
    cause = err.value.__cause__  # the worker's frames
    assert isinstance(cause, RuntimeError)
    assert re.match(r"in sweep worker [01], shard 8:\nTraceback", str(cause))
    assert "in failing" in str(cause)
    assert multiprocessing.active_children() == []


def _assert_shard_3_dies_in_a_worker(setup):
    """In a child interpreter that first runs the statement ``setup``, a
    two-worker sweep of k=6, h=4, M=12 whose worker exits with code 7 on
    shard 3, head (1, 5), raises a ``RuntimeError`` that names the worker,
    the code and the shard, and leaves no child process."""
    script = f"""if True:
        import itertools, multiprocessing, os
        from signedsum import Family, SearchSpace, search, sweep
        shard, parent = search._sweep_shard, os.getpid()

        def dying(args):
            if os.getpid() != parent and args[1][0] == (1, 5):
                os._exit(7)
            return shard(args)

        search._sweep_shard = dying
        os.cpu_count = lambda: 2
        {setup}
        space = SearchSpace(k=6, h=4, max_element=12, family=Family.POSITIVE)
        try:
            sweep(space, workers=2, emit="all", csv_sink=len)
        except RuntimeError as exc:
            print(exc)
        print(multiprocessing.active_children())
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    # shard 3 goes to whichever worker is free first
    assert (done.returncode, done.stderr) == (0, "")
    assert re.fullmatch(r"sweep worker [01] exited with code 7 before it "
                        r"sent shard 3, head \(1, 5\)\n\[\]\n", done.stdout)


class TestBranchAndBound:
    def test_pruned_sweeps_match_unpruned_on_every_small_space(self):
        spaces = list(_every_small_space())
        pruned = 0
        for space in spaces:
            summary = _assert_pruned_sweeps_match_unpruned(space, 1)
            pruned += summary.measured < summary.visited
        assert len(spaces) > 100 and pruned > 50
        # the positive family has no equality set when 2k - 1 > M
        for space in spaces:
            if (space.family is Family.POSITIVE
                    and space.max_element < 2 * space.k - 1):
                summary = sweep(space)
                assert summary.equality_count == 0
                assert summary.min_cardinality > space.bound().value

    @pytest.mark.parametrize("space", [
        SearchSpace(k=6, h=4, max_element=12, family=Family.POSITIVE,
                    filter_id="primitive"),
        SearchSpace(k=6, h=4, max_element=9, family=Family.POSITIVE),
        SearchSpace(k=6, h=3, max_element=12, family=Family.ZERO_BASED),
        SearchSpace(k=6, h=5, max_element=12, family=Family.ZERO_BASED,
                    filter_id="primitive"),
    ])
    @pytest.mark.usefixtures("workers_from_shard_0")
    def test_pruned_sweeps_match_unpruned_with_two_workers(self, space):
        _assert_pruned_sweeps_match_unpruned(space, 2)

    @pytest.mark.usefixtures("workers_from_shard_0")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("filter_id, measured, dilates", [
        (None, 25188, range(1, 5)), ("primitive", 22306, [1])])
    def test_a_wide_pruned_sweep_keeps_its_summary_and_csv(
            self, filter_id, measured, dilates, workers):
        # at M = 40 the walk measures 25,188 of the 658,008 sets, and only
        # 4 of its 1,979 runs hold a kept set (1 with the filter)
        space = SearchSpace(k=5, h=4, max_element=40, family=Family.POSITIVE,
                            filter_id=filter_id)
        records, blocks = [], []
        summary = sweep(space, workers=workers, on_record=records.append,
                        csv_sink=blocks.append)
        equal = [tuple(d * x for x in (1, 3, 5, 7, 9)) for d in dilates]
        assert summary.measured == measured
        assert summary.min_cardinality == 25
        assert [r.set.elements for r in summary.equality_sets] == equal
        assert summary.violations == []
        assert records == _reference_records(space, equal)
        assert _lines("".join(blocks)) == _csv(records)

    def test_measured_counts_only_the_sets_the_walk_formed(self):
        space = SearchSpace(k=7, h=5, max_element=20, family=Family.POSITIVE)
        summary = sweep(space)
        assert summary.visited == 77520
        assert summary.measured < 100
        assert "measured" not in summary.to_dict()
        # the Minkowski floor prunes where the 2h step has no cap: at k = 5,
        # h = 4 the positive table's only pair is on row 3
        positive = sweep(SearchSpace(k=5, h=4, max_element=20,
                                     family=Family.POSITIVE))
        assert (positive.measured, positive.visited) == (2390, 15504)
        zero = sweep(SearchSpace(k=6, h=5, max_element=14,
                                 family=Family.ZERO_BASED))
        assert (zero.measured, zero.visited) == (428, 2002)
        primitive = SearchSpace(k=6, h=4, max_element=13,
                                family=Family.ZERO_BASED, filter_id="primitive")
        full = sweep(primitive, emit="all", on_record=lambda r: None)
        assert full.measured == full.visited == primitive.size() < comb(13, 5)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    def test_size_matches_enumeration(self, family, filter_id):
        # at M = 30 the primitive count subtracts dilates by d up to 6 or
        # 7: primes, the prime square 4 and the product 6
        for max_element in (5, 12, 16, 30):
            space = SearchSpace(k=5, h=4, max_element=max_element,
                                family=family, filter_id=filter_id)
            assert space.size() == len(enumerate_space(space)), max_element

    def test_pool_is_capped_by_shards_and_cpus(self, monkeypatch):
        sizes = []

        def stub_run_shards(args, workers):
            """Records the worker count and runs the shards in this process."""
            sizes.append(workers)
            yield from map(search._sweep_shard, args)

        monkeypatch.setattr(search, "_run_shards", stub_run_shards)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        six = SearchSpace(k=5, h=4, max_element=7, family=Family.POSITIVE)
        three = SearchSpace(k=5, h=4, max_element=6, family=Family.POSITIVE)
        assert (len(six.shard_keys()), len(three.shard_keys())) == (6, 3)
        expected = {s: sweep(s).to_dict() for s in (six, three)}
        assert sizes == [1, 1]
        assert sweep(six, workers=5000).to_dict() == expected[six]
        assert sweep(six, workers=3).to_dict() == expected[six]
        assert sweep(three, workers=5000).to_dict() == expected[three]
        assert sizes == [1, 1, 4, 3, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep(six, workers=5000).to_dict() == expected[six]
        assert sizes == [1, 1, 4, 3, 3, 1]  # one CPU: no worker process

    @pytest.mark.usefixtures("workers_from_shard_0")
    def test_two_worker_sweep_leaves_no_child_process(self, monkeypatch):
        # two CPUs, so the workers run on any host
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        space = SearchSpace(k=6, h=4, max_element=12, family=Family.POSITIVE)
        seen = []
        sweep(space, workers=2, emit="all", on_record=seen.append)
        assert len(seen) == comb(12, 6)
        assert multiprocessing.active_children() == []

        calls = []

        def fail_on_third(record):
            calls.append(record)
            if len(calls) == 3:
                raise RuntimeError("consumer gone")

        with pytest.raises(RuntimeError, match="consumer gone"):
            sweep(space, workers=2, emit="all", on_record=fail_on_third)
        assert calls == seen[:3]
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("workers_from_shard_0")
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub shard reaches the workers by fork")
    def test_a_workers_shard_error_is_raised_here(self, monkeypatch):
        _assert_shard_8_fails_in_a_worker(monkeypatch)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub shard reaches the workers by fork")
    def test_dead_worker_raises_and_leaves_no_child_process(self):
        # a worker that exits mid-sweep once hung the sweep; the child
        # interpreter's timeout turns such a hang into a failure
        _assert_shard_3_dies_in_a_worker("search.WORKERS_AFTER_S = 0")

    @pytest.mark.usefixtures("workers_from_shard_0")
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub shard reaches the workers by fork")
    def test_a_long_shard_holds_up_no_other(self, monkeypatch):
        # shard 0 runs until shard 5 has run. Were worker w to run shards
        # w, w+2, ... in turn, worker 1 would wait to send shard 1's large
        # result until shard 0 was read, and never reach shard 5
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        space = SearchSpace(k=5, h=4, max_element=7, family=Family.POSITIVE)
        keys = space.shard_keys()
        assert len(keys) == 6
        ran = multiprocessing.Event()

        def stub(args):
            if args[1][0] == keys[0] and not ran.wait(20):
                raise TimeoutError("shard 5 did not run beside shard 0")
            if args[1][0] == keys[5]:
                ran.set()
            return None, [], 0, f"{args[1][0]}\n" + "x" * 2**20

        monkeypatch.setattr(search, "_sweep_shard", stub)
        blocks = []
        sweep(space, workers=2, emit="all", csv_sink=blocks.append)
        assert [b.split("\n")[0] for b in blocks] == [str(k) for k in keys]
        assert multiprocessing.active_children() == []

    def test_a_short_sweep_starts_no_worker(self):
        # it ends long before WORKERS_AFTER_S, so every shard runs here
        script = """if True:
            import os, sys
            from signedsum import Family, SearchSpace, sweep

            def no_fork():
                raise AssertionError("a short sweep forked")

            os.fork = no_fork
            os.cpu_count = lambda: 2
            space = SearchSpace(k=6, h=4, max_element=12,
                                family=Family.POSITIVE)
            summary = sweep(space, workers=2, emit="all", csv_sink=len)
            print(summary.visited, "multiprocessing" in sys.modules)
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"{comb(12, 6)} False\n", "")

    def test_a_sweep_hands_its_later_shards_to_workers(self, monkeypatch):
        # a clock that reaches WORKERS_AFTER_S after shard 2 runs shards 0
        # to 2 here and the rest in two workers, and the sweep gives what
        # one worker gives
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        shard = search._sweep_shard
        here = []

        def spy(args):
            here.append(args[1][0])
            return shard(args)

        monkeypatch.setattr(search, "_sweep_shard", spy)
        space = SearchSpace(k=6, h=4, max_element=13, family=Family.ZERO_BASED,
                            filter_id="primitive")
        keys = space.shard_keys()
        for emit in EMIT_MODES:
            runs = []
            for workers in (1, 2):
                monkeypatch.setattr(search, "perf_counter",
                                    _clock_reaching_workers_after(3))
                here.clear()
                records, blocks = [], []
                summary = sweep(space, workers=workers, emit=emit,
                                on_record=records.append,
                                csv_sink=blocks.append)
                runs.append((summary.to_dict(), summary.measured, records,
                             _lines("".join(blocks))))
                assert here == (keys if workers == 1 else keys[:3]), emit
                assert multiprocessing.active_children() == []
            assert runs[1] == runs[0], emit
            assert runs[0][2] or emit == "none"

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub shard reaches the workers by fork")
    def test_handed_over_shards_run_once_and_keep_their_numbers(
            self, monkeypatch):
        # shards 0 to 2 run here and each later one in a worker, once, and
        # the workers' errors still count shards from the sweep's first
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        space = SearchSpace(k=6, h=4, max_element=12, family=Family.POSITIVE)
        keys, parent = space.shard_keys(), os.getpid()
        runs = multiprocessing.Array("i", len(keys))  # 1 here, 10 in a worker
        shard = search._sweep_shard

        def counted(args):
            runs[keys.index(args[1][0])] += 1 if os.getpid() == parent else 10
            return shard(args)

        monkeypatch.setattr(search, "_sweep_shard", counted)
        monkeypatch.setattr(search, "perf_counter",
                            _clock_reaching_workers_after(3))
        sweep(space, workers=2, emit="all", csv_sink=len)
        assert list(runs) == [1] * 3 + [10] * (len(keys) - 3)
        monkeypatch.setattr(search, "_sweep_shard", shard)
        monkeypatch.setattr(search, "perf_counter",
                            _clock_reaching_workers_after(3))
        _assert_shard_8_fails_in_a_worker(monkeypatch)
        _assert_shard_3_dies_in_a_worker(
            "calls = itertools.count(); search.perf_counter = "
            "lambda: search.WORKERS_AFTER_S * (next(calls) > 3)")
