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
and yields the siblings below each parent as one run of cardinalities.
A shard returns plain ``(candidate, cardinality)`` rows, so only ints and
tuples of ints cross the process boundary, and each record is built once,
in the parent, by :func:`_merge`, the one place where shipped rows become
records, for sweeps and probes alike. A sweep that writes CSV has
each shard format its own rows, straight from those pairs, and ship them
as one string, so the parent builds records only for the summary.

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
from dataclasses import dataclass
from functools import cache
from math import comb, gcd
from multiprocessing import Pipe, Process
from typing import Callable, Iterable, Iterator

from .bounds import BoundFormula, Family
from .engine import admit_walk, prefix_cardinalities
from .sets import (NOT_STRUCTURED, IntegerSet, Record, StructureClass,
                   classify_structure)

DEFAULT_BUDGET = 10**7
EMIT_MODES = ("interesting", "all", "none")
FILTER_IDS = (None, "primitive")


@dataclass(frozen=True)
class SearchSpace:
    """Candidate universe: k-subsets of [1, M], or {0} plus (k-1)-subsets.

    The optional "primitive" filter keeps only sets whose elements have
    gcd 1, skipping dilates of smaller sets.
    """

    k: int
    h: int
    max_element: int
    family: Family
    filter_id: str | None = None

    def __post_init__(self) -> None:
        self.bound()  # validates the family's (h, k) window
        if self.filter_id not in FILTER_IDS:
            raise ValueError(f"unknown filter {self.filter_id!r}")
        if self.max_element < self.free:
            raise ValueError("space smaller than k")

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

    def shard_candidates(self, key: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Every candidate that starts with the shard head ``key``."""
        rest = range(key[-1] + 1, self.max_element + 1)
        for tail in itertools.combinations(rest, self.k - len(key)):
            yield key + tail

    def candidates(self) -> Iterator[tuple[int, ...]]:
        for key in self.shard_keys():
            yield from self.shard_candidates(key)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "h": self.h,
            "max_element": self.max_element,
            "family": self.family.value,
            "filter": self.filter_id,
        }


@dataclass(frozen=True)
class SearchRecord(Record):
    """One candidate set with its measured cardinality and status."""

    set: IntegerSet
    cardinality: int
    slack: int
    equality: bool
    structure: StructureClass

    def to_csv_row(self) -> str:
        return (",".join(map(str, self.set.elements)) + ";"
                + _csv_columns(self.cardinality, self.slack, self.equality,
                               self.structure))


CSV_HEADER = "set;cardinality;slack;equality;structure_kind;d"


def _csv_columns(cardinality: int, slack: int, equality: bool,
                 structure: StructureClass) -> str:
    """The CSV columns after ``set``, in ``CSV_HEADER`` order: the one row
    format of ``SearchRecord.to_csv_row`` and of the shards' CSV text."""
    d = "" if structure.d is None else str(structure.d)
    return ";".join([str(cardinality), str(slack),
                     "true" if equality else "false", structure.kind.value, d])


def _csv_run(prefix: tuple[int, ...], leaves: list[tuple[int, int]],
             bound_value: int, unstructured: dict[int, str],
             names: list[str]) -> str:
    """The CSV lines of the siblings ``prefix + (a,)`` for the ``(a,
    cardinality)`` pairs ``leaves``, in order, as ``SearchRecord.to_csv_row``
    gives them, each ending in a newline.

    The text of the shared prefix is formed once, and each element's text
    is looked up in ``names``, where ``names[x]`` is ``str(x)``. Only an
    arithmetic progression is classified other than NONE, so a sibling is
    classified only when the prefix is a progression and the sibling
    extends it. The columns of the rest depend on the cardinality alone
    and are formed once per cardinality, into ``unstructured``, which the
    caller keeps across runs. Every candidate of a search space has at
    least four elements.
    """
    head = ",".join([names[x] for x in prefix]) + ","
    step = prefix[1] - prefix[0]
    # the span rules out most prefixes before their gaps are compared
    ap_last = (prefix[-1] + step
               if prefix[-1] - prefix[0] == step * (len(prefix) - 1)
               and all(y - x == step for x, y in zip(prefix, prefix[1:]))
               else None)
    lines = []
    for a, card in leaves:
        if a == ap_last:
            structure = classify_structure(IntegerSet(prefix + (a,)))
            columns = _csv_columns(card, card - bound_value, card == bound_value,
                                   structure)
        else:
            columns = unstructured.get(card)
            if columns is None:
                columns = unstructured[card] = _csv_columns(
                    card, card - bound_value, card == bound_value,
                    NOT_STRUCTURED)
        lines.append(f"{head}{names[a]};{columns}\n")
    return "".join(lines)


@dataclass
class SweepSummary:
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

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "bound": self.space.bound().value,
            "visited": self.visited,
            "min_cardinality": self.min_cardinality,
            "equality_count": self.equality_count,
            "violation_count": self.violation_count,
            "equality_sets": [r.set.to_list() for r in self.equality_sets],
            "violations": [r.to_dict() for r in self.violations],
        }


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
    [(_, _, [card])] = prefix_cardinalities(witness, space.h, m, k)
    return max(space.bound().value, card)


def _sweep_shard(args: tuple[SearchSpace, Iterable[tuple[int, ...]],
                              int | None, bool, bool]
                 ) -> tuple[int | None, list[tuple[tuple[int, ...], int]], int,
                            str]:
    """Walk the candidates below each head of ``heads`` in turn; returns
    (min_card, rows, measured, csv_text) over them all. The walk yields
    the siblings below each parent as one run, and each run is taken
    whole: one gcd, one minimum and one CSV prefix for all its sets.

    A sweep shard has one head, its key; a probe passes its draws, each a
    whole candidate, whose walk yields just that set's row. A candidate
    that fails the primitive filter is walked but not measured. With
    ``limit`` None every candidate is measured; otherwise the walk skips
    each subtree whose sets all exceed ``limit``. ``min_card`` is the
    least measured cardinality. ``rows`` holds a plain ``(candidate,
    cardinality)`` pair, in walk order, for every measured candidate when
    ``keep_all`` is set, and otherwise only for those at or below the
    bound. When ``csv`` is set, ``csv_text`` holds the CSV lines of the
    emitted candidates, every measured one when ``limit`` is None and
    those at or below the bound otherwise; it is empty when ``csv`` is not
    set. Only ints, tuples of ints and a string cross the process
    boundary; the records are built in the parent.
    """
    space, heads, limit, keep_all, csv = args
    bound_value = space.bound().value
    primitive = space.filter_id == "primitive"
    every_line = csv and limit is None
    measured = 0
    min_card: int | None = None
    rows: list[tuple[tuple[int, ...], int]] = []
    text: list[str] = []
    unstructured: dict[int, str] = {}
    names = [str(x) for x in range(space.max_element + 1)] if csv else []
    for head in heads:
        for prefix, first, counts in prefix_cardinalities(
                head, space.h, space.max_element, space.k, limit):
            leaves = None
            # a sibling's gcd is gcd(g, a), with g the prefix's
            if primitive and (g := gcd(*prefix)) != 1:
                leaves = [(a, card) for a, card in enumerate(counts, first)
                          if gcd(g, a) == 1]
                if not leaves:
                    continue
                counts = [card for _, card in leaves]
            measured += len(counts)
            low = min(counts)
            if min_card is None or low < min_card:
                min_card = low
            if low > bound_value and not (keep_all or every_line):
                continue
            if leaves is None:
                leaves = list(enumerate(counts, first))
            kept = ([(a, card) for a, card in leaves if card <= bound_value]
                    if low <= bound_value else [])
            rows += [(prefix + (a,), card)
                     for a, card in (leaves if keep_all else kept)]
            if csv:
                text.append(_csv_run(prefix, leaves if every_line else kept,
                                     bound_value, unstructured, names))
    return min_card, rows, measured, "".join(text)


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
        from multiprocessing.connection import wait  # loaded by Pipe()
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
    ``on_record`` receives emitted records in deterministic (lexicographic)
    order; ``emit`` selects all records, only equality/violation records,
    or none. ``csv_sink``, such as an open file's ``write``, receives the
    same emitted records as CSV lines (``SearchRecord.to_csv_row`` and a
    newline each), one string per shard, formatted in the shard; no
    record is built for them. Unless every record is emitted, the walk
    prunes each subtree whose sets must all exceed ``_prune_limit``: none
    of them could be an emitted record or the minimum, and ``visited``
    counts them with the rest, as ``space.size()``. With ``workers > 1``
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
    emitting = on_record is not None and emit != "none"
    csv = csv_sink is not None and emit != "none"
    # only a consumer of every record needs every set measured; otherwise
    # shards ship only the rows the summary keeps
    limit = (None if (emitting or csv) and emit == "all"
             else _prune_limit(space))
    keep_all = emitting and limit is None
    args = [(space, (key,), limit, keep_all, csv)
            for key in space.shard_keys()]
    workers = min(workers, len(args), os.cpu_count() or 1)
    # leaving the block closes the runner and so ends its workers, so after
    # an error, such as a closed output pipe, no shard runs for nobody;
    # either way each shard's result comes in shard order once it is done
    with (closing(_parallel(args, workers)) if workers > 1
          else nullcontext(map(_sweep_shard, args))) as results:
        measured, min_card, equality_sets, violations = _merge(
            results, space.bound().value, on_record if emitting else None,
            csv_sink)
    return SweepSummary(space, space.size(), measured, min_card,
                        len(equality_sets), len(violations), equality_sets,
                        violations)


@dataclass
class ProbeSummary:
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

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "bound": self.space.bound().value,
            "trials": self.trials,
            "seed": self.seed,
            "min_slack": self.min_slack,
            "violation_count": self.violation_count,
            "violations": [r.to_dict() for r in self.violations],
            "equality_count": self.equality_count,
            "equality_sets": [r.set.to_list() for r in self.equality_sets],
        }


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
