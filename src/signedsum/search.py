"""Exhaustive and randomized sweeps hunting bound violations and equality cases.

A sweep visits every candidate set of a search space in lexicographic
order, measures its restricted signed sumset against the family's optimal
bound, and harvests the equality cases (the extremal sets) and any
violations (each one a counterexample). Work is partitioned into shards by
the two smallest free elements, so shards are small and even, run in
parallel and merge in a fixed order; summaries and the record stream are
identical for any worker count, including 1, and each shard's records are
passed on as soon as it and every earlier shard are done. Each of ``W``
worker processes has its own pipe, over which the parent sends it the
next shard's index whenever it is free and reads back that shard's
result; a worker that dies makes the sweep raise. Within a shard
the engine walks the candidates depth first
(:func:`~signedsum.engine.prefix_cardinalities`), extending the DP rows of
each shared prefix once rather than rerunning the DP for every candidate,
and yields the siblings below each parent as one run: the parent's rows
h - 1 and h and the range of the siblings' last elements. A shard takes
each sibling in one pass (:func:`_sweep_shard`): it filters it, counts
it, compares it with the minimum and the bound, and ships it and writes
its CSV line, where the walk forms it, in a pruned sweep as in any other.
A shard returns plain ``(candidate, cardinality)`` rows, so only ints and
tuples of ints cross the process boundary, and each record is built once,
in the parent, by :func:`_merge`, the one place where shipped rows become
records, for sweeps and probes alike. A sweep that writes CSV has
each shard format its own lines and ship them as one string, so the
parent builds records only for the summary.

Unless every record is emitted, the walk prunes: the parent measures one
witness set of the space, and each shard skips every prefix whose
completions must all have more sums than both the bound and that
witness. Such sets can be neither an equality case, a violation nor the
minimum. ``visited`` is the space's size, counted in closed form by
:meth:`SearchSpace.size`, and ``SweepSummary.measured`` counts the sets
the walk measured.
"""

from __future__ import annotations

import itertools
import os
import random
from contextlib import closing, nullcontext
from functools import cache
from math import comb, gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .bounds import BoundFormula, Family
from .engine import admit_walk, leaf_counts, prefix_cardinalities
from .sets import (NOT_STRUCTURED, IntegerSet, StructureClass,
                   classify_structure, common_difference, record_dict)

DEFAULT_BUDGET = 10**7
EMIT_MODES = ("interesting", "all", "none")
FILTER_IDS = (None, "primitive")


class _SpaceFields(NamedTuple):
    k: int
    h: int
    max_element: int
    family: Family
    filter_id: str | None = None


class SearchSpace(_SpaceFields):
    """Candidate universe: k-subsets of [1, M], or {0} plus (k-1)-subsets.

    The optional "primitive" filter keeps only sets whose elements have
    gcd 1, skipping dilates of smaller sets. A space is validated when it
    is constructed, unpickled or made by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, k: int, h: int, max_element: int, family: Family,
                filter_id: str | None = None) -> SearchSpace:
        self = super().__new__(cls, k, h, max_element, family, filter_id)
        self.bound()  # validates the family's (h, k) window
        if filter_id not in FILTER_IDS:
            raise ValueError(f"unknown filter {filter_id!r}")
        if max_element < self.free:
            raise ValueError("space smaller than k")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> SearchSpace:
        return cls(*iterable)

    @property
    def free(self) -> int:
        """Number of elements chosen from [1, M]."""
        return self.k - len(self.family.fixed)

    def bound(self) -> BoundFormula:
        return self.family.optimal_bound(self.h, self.k)

    def size(self) -> int:
        """Number of candidates that pass the filter, without visiting them.

        Unfiltered it is C(M, free). Every free-set S of [1, n] is gcd(S)
        times a primitive set of [1, n // gcd(S)], so the primitive count
        is P(M), where P(n) = C(n, free) - sum(P(n // d) for 2 <= d <=
        n // free).
        """
        free = self.free
        if self.filter_id is None:
            return comb(self.max_element, free)

        @cache
        def primitive(n: int) -> int:
            return comb(n, free) - sum(primitive(n // d)
                                       for d in range(2, n // free + 1))
        return primitive(self.max_element)

    def admit(self, budget: int) -> None:
        """Refuse a space of over ``budget`` candidate sets, then one whose
        DP rows the walk would refuse, by the walk's own check,
        :func:`~signedsum.engine.admit_walk`. C(M, i) rises with i up to
        min(free, M - free): it is built one factor at a time, and a count
        past max(budget, 10**18) is named, not printed."""
        m, free = self.max_element, self.free
        size = 1
        for i in range(min(free, m - free)):
            size = size * (m - i) // (i + 1)
            if size > max(budget, 10**18):
                raise ValueError(f"budget exceeded: C({m}, {free}) candidate "
                                 f"sets > budget {budget}")
        if size > budget:
            raise ValueError(
                f"budget exceeded: {size} candidate sets > budget {budget}")
        admit_walk(self.h, self.k, m)

    def shard_keys(self) -> list[tuple[int, ...]]:
        """Head of each shard, in lexicographic order: the two smallest free
        elements, after 0 in the zero-based family."""
        top = self.max_element - self.free + 2  # room for the other elements
        return [self.family.fixed + pair
                for pair in itertools.combinations(range(1, top + 1), 2)]

    # callers: perfbench's tracer (tests/test_tracer.py), tests; ROADMAP item 9
    def shard_candidates(self, key: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Every candidate that starts with the shard head ``key``."""
        rest = range(key[-1] + 1, self.max_element + 1)
        for tail in itertools.combinations(rest, self.k - len(key)):
            yield key + tail

    def to_dict(self) -> dict:
        """The fields as :func:`record_dict` gives them, ``filter_id``
        keyed as ``filter``."""
        out = record_dict(self)
        out["filter"] = out.pop("filter_id")  # it stays the last key
        return out


class SearchRecord(NamedTuple):
    """One candidate set with its measured cardinality and status."""

    set: IntegerSet
    cardinality: int
    slack: int
    equality: bool
    structure: StructureClass

    to_dict = record_dict

    # callers: perfbench's tracer (tests/test_tracer.py), tests; ROADMAP item 9
    def to_csv_row(self) -> str:
        return (",".join(map(str, self.set.elements)) + ";"
                + _csv_columns(self.cardinality, self.slack, self.equality,
                               self.structure))


CSV_HEADER = "set;cardinality;slack;equality;structure_kind;d"


def _csv_columns(cardinality: int, slack: int, equality: bool,
                 structure: StructureClass) -> str:
    """The CSV columns after ``set``, in ``CSV_HEADER`` order, ``;``
    separated: cardinality, slack, ``true`` or ``false``, the structure
    kind and ``d`` (empty when there is none). A CSV row is the set's
    elements joined by ``,``, a ``;`` and these columns."""
    d = "" if structure.d is None else str(structure.d)
    return ";".join([str(cardinality), str(slack),
                     "true" if equality else "false", structure.kind.value, d])


def _summary_dict(summary: SweepSummary | ProbeSummary) -> dict:
    """The JSON form of a sweep or probe summary: its space's dict and
    bound, then its other fields in field order but ``measured``, with
    each equality set as its list of elements and each violation as its
    record's dict."""
    out = {"space": summary.space.to_dict(),
           "bound": summary.space.bound().value}
    for name, value in zip(summary._fields, summary):
        if name == "equality_sets":
            value = [r.set.to_list() for r in value]
        elif name == "violations":
            value = [r.to_dict() for r in value]
        if name not in ("space", "measured"):
            out[name] = value
    return out


class SweepSummary(NamedTuple):
    """``visited`` counts every candidate of the space that passes the
    filter, ``SearchSpace.size()``; ``measured`` counts those whose
    cardinality the walk formed, and the rest lay in pruned subtrees.
    ``measured`` is not part of ``to_dict()``."""

    space: SearchSpace
    visited: int
    measured: int
    min_cardinality: int | None
    equality_count: int
    violation_count: int
    equality_sets: list[SearchRecord]
    violations: list[SearchRecord]

    to_dict = _summary_dict


def _prune_limit(space: SearchSpace) -> int:
    """The larger of the bound and the cardinality of a witness set.

    The witness lies in the space and contains 1, so it passes the
    primitive filter too, and the space's minimum is at most its
    cardinality. A set above this limit is therefore never an equality
    case, a violation or the minimum, and the walk may prune it.
    """
    k, m = space.k, space.max_element
    if space.family is Family.ZERO_BASED:
        witness = tuple(range(k))
    elif 2 * k - 1 <= m:
        witness = tuple(range(1, 2 * k, 2))
    else:
        witness = tuple(range(1, k + 1))
    [card] = leaf_counts(*prefix_cardinalities(witness, space.h, m, k))
    return max(space.bound().value, card)


def _sweep_shard(args: tuple[SearchSpace, Iterable[tuple[int, ...]],
                              int | None, bool, bool]
                 ) -> tuple[int | None, list[tuple[tuple[int, ...], int]], int,
                            str]:
    """Walk the candidates below each head of ``heads`` in turn; returns
    (min_card, rows, measured, csv_text) over them all.

    A sweep shard has one head, its key; a probe passes its draws, each a
    whole candidate, whose walk yields one run of that set alone. A
    candidate that fails the primitive filter is walked but not measured,
    and ``min_card`` is the least measured cardinality.

    One rule decides what a shard emits. With ``limit`` None every
    candidate is measured and emitted; otherwise the walk skips each
    subtree whose sets all exceed ``limit``, and only the kept candidates,
    those at or below the bound, are emitted. ``rows`` holds a plain
    ``(candidate, cardinality)`` pair, in walk order, for each emitted
    candidate when ``records`` is set, and for each kept one otherwise,
    which is all the summary needs. ``csv_text`` holds the CSV lines of
    the emitted candidates when ``csv`` is set, and is empty otherwise.
    Only ints, tuples of ints and a string cross the process boundary;
    the records are built in the parent.

    Each leaf of a run is taken in one pass: it is filtered, counted where
    it is formed, compared with the least count so far and the bound, and
    shipped and written as it is emitted. With a ``limit`` a leaf above the
    bound is counted and dropped there, so a run is counted once, pruned
    or not.

    A CSV line is the text of the leaf's prefix, its own text and the
    columns after ``set``. A prefix's text is its parent's, formed once
    for all the prefixes that share that parent, and its last element's;
    ``names[x]`` is ``str(x)``. Only an arithmetic progression is
    classified other than NONE, so a leaf is classified only when its
    prefix is a progression and the leaf extends it. A prefix is one when
    its parent is, with the difference its last element adds: every
    candidate of a search space has at least four elements, so a parent
    has two or more, and its common difference is found once. The columns
    of every other leaf depend on its count alone, and are formed once
    per count.
    """
    space, heads, limit, records, csv = args
    bound_value = space.bound().value
    primitive = space.filter_id == "primitive"
    measured = 0
    low = 2 * space.h * space.max_element + 2  # above any count
    rows: list[tuple[tuple[int, ...], int]] = []
    lines: list[str] = []
    names = [str(x) for x in range(space.max_element + 1)] if csv else []
    columns: dict[int, str] = {}
    parent = parent_text = parent_step = None
    g, ap_last = 1, None
    for head in heads:
        for prefix, below, row, leaves in prefix_cardinalities(
                head, space.h, space.max_element, space.k, limit):
            if primitive:
                g = gcd(*prefix)  # a leaf's gcd is gcd(g, a)
            if csv:
                if prefix[:-1] != parent:
                    parent = prefix[:-1]
                    parent_text = "".join([names[x] + "," for x in parent])
                    parent_step = common_difference(parent)
                last = prefix[-1]
                text = parent_text + names[last] + ","
                step = last - parent[-1]
                ap_last = last + step if step == parent_step else None
            measured += len(leaves)
            for a in leaves:
                if g != 1 and gcd(g, a) != 1:
                    measured -= 1
                    continue
                card = (below << a | below >> a | row).bit_count()
                if card < low:
                    low = card
                if card <= bound_value:
                    rows.append((prefix + (a,), card))
                elif limit is not None:
                    continue
                elif records:
                    rows.append((prefix + (a,), card))
                if csv:
                    if a == ap_last:
                        structure = classify_structure(
                            IntegerSet(prefix + (a,)))
                        tail = ";" + _csv_columns(
                            card, card - bound_value, card == bound_value,
                            structure) + "\n"
                    else:
                        tail = columns.get(card)
                        if tail is None:
                            tail = columns[card] = ";" + _csv_columns(
                                card, card - bound_value, card == bound_value,
                                NOT_STRUCTURED) + "\n"
                    lines.append(text + names[a] + tail)
    return low if measured else None, rows, measured, "".join(lines)


def _merge(results: Iterable[tuple[int | None, list[tuple[tuple[int, ...],
                                                         int]], int, str]],
           bound_value: int,
           on_record: Callable[[SearchRecord], None] | None = None,
           csv_sink: Callable[[str], object] | None = None
           ) -> tuple[int, int | None, list[SearchRecord], list[SearchRecord]]:
    """Merge ``_sweep_shard`` results, taken in order, into (measured,
    min_card, equality_sets, violations): the one place where shipped
    ``(candidate, cardinality)`` rows become records. Each shard's records
    go to ``on_record`` and its CSV text to ``csv_sink``, when given, as
    soon as that shard is merged."""
    measured = 0
    min_card: int | None = None
    equality_sets: list[SearchRecord] = []
    violations: list[SearchRecord] = []
    for shard_min, rows, shard_measured, text in results:
        measured += shard_measured
        if shard_min is not None and (min_card is None
                                      or shard_min < min_card):
            min_card = shard_min
        for candidate, card in rows:
            a = IntegerSet(candidate)
            slack = card - bound_value
            record = SearchRecord(a, card, slack, slack == 0,
                                  classify_structure(a))
            if record.equality:
                equality_sets.append(record)
            elif slack < 0:
                violations.append(record)
            if on_record is not None:
                on_record(record)
        if text:
            csv_sink(text)
    return measured, min_card, equality_sets, violations


def _serve(args: list, conn) -> None:
    """Sweep worker: for each shard index ``i`` that comes in on ``conn``,
    send back ``(result, None)`` for shard ``args[i]``, or ``(exception,
    traceback)`` if it raised."""
    while True:
        i = conn.recv()
        try:
            conn.send((_sweep_shard(args[i]), None))
        except Exception as exc:
            import traceback  # every command would pay for it at import
            conn.send((exc, traceback.format_exc()))


def _parallel(args: list, workers: int) -> Iterator:
    """Yield ``_sweep_shard`` of each of ``args`` in order, run by
    ``workers`` processes, each sent the next shard's index whenever it is
    free.

    Results that come in early wait here for the in-order merge, and no
    shard is sent more than ``8 * workers`` past the first one not yet
    yielded, which bounds what waits. Shards that share a smallest element
    shrink from the first on, and with a narrower window the large first
    shard of each such group would wait for the previous group's.
    A shard's exception is raised here, from a ``RuntimeError`` that holds
    the worker's traceback, and a worker that exits before it has sent its
    shard raises a ``RuntimeError`` naming the shard and the exit code.
    Closing the generator terminates and joins every worker.
    """
    # only a parallel sweep needs multiprocessing, which loads socket,
    # pickle and selectors; importing it here spares every other command
    from multiprocessing import Pipe, Process
    from multiprocessing.connection import wait
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, end = Pipe()
            proc = Process(target=_serve, args=(args, end), daemon=True)
            proc.start()
            # else a dead worker's pipe never reaches end of file
            end.close()
            procs.append(proc)
            conns.append(conn)
        idle, running, done = conns[::-1], {}, {}
        sent, window = 0, 8 * workers
        for i in range(len(args)):
            while i not in done:
                while idle and sent < min(len(args), i + window):
                    conn = idle.pop()
                    try:
                        conn.send(sent)
                    except OSError:  # dead: its end of file is read below
                        pass
                    running[conn] = sent
                    sent += 1
                for conn in wait(list(running)):
                    j, w = running.pop(conn), conns.index(conn)
                    try:
                        result, failure = conn.recv()
                    except (EOFError, OSError):
                        procs[w].join()
                        raise RuntimeError(
                            f"sweep worker {w} exited with code "
                            f"{procs[w].exitcode} before it sent shard {j}, "
                            f"head {args[j][1][0]}") from None
                    if failure is not None:
                        raise result from RuntimeError(
                            f"in sweep worker {w}, shard {j}:\n{failure}")
                    done[j] = result
                    idle.append(conn)
            yield done.pop(i)
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def sweep(space: SearchSpace, *, budget: int = DEFAULT_BUDGET, workers: int = 1,
          emit: str = "interesting",
          on_record: Callable[[SearchRecord], None] | None = None,
          csv_sink: Callable[[str], object] | None = None) -> SweepSummary:
    """Visit every set in the space and summarize bound behaviour.

    Raises before starting if the space exceeds ``budget`` candidate sets
    or its DP rows are too large to walk (``SearchSpace.admit``).
    ``on_record`` receives the emitted records in deterministic
    (lexicographic) order, and ``csv_sink``, such as an open file's
    ``write``, receives the same records as CSV lines in ``CSV_HEADER``'s
    format (the set, then :func:`_csv_columns`, and a newline each), one
    string per shard, formatted in the shard; no record is built for them.

    One rule decides what is emitted. ``emit="none"`` drops both
    consumers. ``emit="all"`` with a consumer left emits every set, and
    only then is ``limit`` None and nothing pruned. Otherwise the walk
    prunes each subtree whose sets must all exceed ``_prune_limit``, and
    the emitted sets are the equality cases and violations: the pruned
    sets could be none of those nor the minimum, and ``visited`` counts
    them with the rest, as ``space.size()``. With ``workers > 1``
    shards run in ``W`` worker processes, at most one per shard and per
    CPU, each sent the next shard whenever it is free (``_parallel``).
    Either way a shard returns only ``(candidate, cardinality)`` rows and
    its CSV text, and ``_merge`` builds each record once, in this process,
    as it merges the shards in shard order, so results, callback order and
    CSV do not depend on the worker count. A shard is merged, and its
    records and CSV passed on, as soon as it and every earlier shard are
    done, so nothing is held until the whole sweep ends. The workers are
    terminated when the sweep returns or raises, and a worker that dies
    before it has sent a shard makes the sweep raise ``RuntimeError``.
    """
    if emit not in EMIT_MODES:
        raise ValueError(f"unknown emit mode {emit!r}")
    space.admit(budget)
    if emit == "none":
        on_record = csv_sink = None
    consumers = (on_record is not None, csv_sink is not None)
    # only a consumer of every record needs every set measured; otherwise
    # shards ship only the rows the summary keeps
    limit = None if emit == "all" and any(consumers) else _prune_limit(space)
    args = [(space, (key,), limit, *consumers) for key in space.shard_keys()]
    workers = min(workers, len(args), os.cpu_count() or 1)
    # leaving the block closes the runner and so ends its workers, so after
    # an error, such as a closed output pipe, no shard runs for nobody;
    # either way each shard's result comes in shard order once it is done
    with (closing(_parallel(args, workers)) if workers > 1
          else nullcontext(map(_sweep_shard, args))) as results:
        measured, min_card, equality_sets, violations = _merge(
            results, space.bound().value, on_record, csv_sink)
    return SweepSummary(space, space.size(), measured, min_card,
                        len(equality_sets), len(violations), equality_sets,
                        violations)


class ProbeSummary(NamedTuple):
    """``trials`` counts every draw; ``measured`` counts those that passed
    the filter and were measured. ``measured`` is not part of
    ``to_dict()``."""

    space: SearchSpace
    trials: int
    measured: int
    seed: int
    min_slack: int | None
    violation_count: int
    violations: list[SearchRecord]
    equality_count: int
    equality_sets: list[SearchRecord]

    to_dict = _summary_dict


def random_probe(space: SearchSpace, trials: int, seed: int) -> ProbeSummary:
    """Sample ``trials`` sets uniformly from the space and check the bound.

    Each trial draws the set's elements without replacement; the sequence
    of draws is fully determined by ``seed``. The draws are measured as
    one sweep shard whose heads are the drawn sets, and merged by
    ``_merge`` as the sweep's shards are, so a draw that fails
    the primitive filter counts as a trial but is not measured. Any
    violation is recorded as a counterexample and must be surfaced by
    callers.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    population = range(1, space.max_element + 1)
    heads = (space.family.fixed
             + tuple(sorted(rng.sample(population, space.free)))
             for _ in range(trials))
    bound_value = space.bound().value
    measured, min_card, equality_sets, violations = _merge(
        [_sweep_shard((space, heads, None, False, False))], bound_value)
    min_slack = None if min_card is None else min_card - bound_value
    return ProbeSummary(space, trials, measured, seed, min_slack,
                        len(violations), violations, len(equality_sets),
                        equality_sets)
