"""The benchmark's per-layer tracer (``perfbench/layers.py``) still finds
every program name it wraps, so a refactor that drops one fails here rather
than only in traced benchmark runs."""

import importlib.util
from pathlib import Path

from signedsum import Family, SearchSpace, make_set, search, verify

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_measures_a_sweep_and_a_check_then_restores(capsys):
    tracer = _load_tracer()()
    before = [(mod, dict(vars(mod))) for mod in tracer.modules]
    methods = (search.SearchRecord.to_csv_row,
               search.SearchSpace.shard_candidates)
    targets = dict(tracer.reproduce.TARGETS)
    sweep = search.sweep
    tracer.install()
    try:
        assert search.sweep is not sweep
        space = SearchSpace(k=5, h=4, max_element=9, family=Family.POSITIVE)
        search.sweep(space)
        verify.check_direct(make_set([1, 3, 5, 7, 9]), 4)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(dp_s=tracer.replay_dp())
    assert capsys.readouterr().err == ""
    assert metrics["search.visited"] == 126
    assert metrics["verify.direct.engine_calls"] == 1
    for mod, names in before:
        assert all(vars(mod)[name] is value for name, value in names.items())
    assert (search.SearchRecord.to_csv_row,
            search.SearchSpace.shard_candidates) == methods
    assert tracer.reproduce.TARGETS == targets
