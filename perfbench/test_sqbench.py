"""Benchmark self-checks: inputs depend only on the seed, and the traced
work counters repeat exactly for a fixed seed.  Timings are not gated.

Run with `PYTHONPATH=src python -m pytest -q perfbench` from the repository root.
"""

import sqbench
import sqtrace


def _traced_counts(lib, workload, items):
    tracer = sqtrace.Tracer()
    tracer.install(lib)
    try:
        tally = sqbench.run_pass(lib, workload, items, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.errors
    return {k: v for k, v in tracer.layer_metrics().items() if not sqtrace.is_timing(k)}


def test_inputs_depend_only_on_the_seed():
    for workload in sqbench.WORKLOADS:
        assert sqbench.make_items(workload, 3) == sqbench.make_items(workload, 3)
    for workload in ("golden-thue", "golden-conic"):
        assert sorted(sqbench.make_items(workload, 1)) == sorted(sqbench.make_items(workload, 2))
    assert sorted(sqbench.THUE_T + sqbench.CONIC_T) == sorted(sqbench.GOLDEN_T)
    box = sqbench.make_items("box-oracle", 5)
    strata = sorted(i for t in box for i, s in enumerate(sqbench.BOX_STRATA) if t in s)
    assert strata == list(range(len(sqbench.BOX_STRATA)))
    groups = [g for g in sqbench.make_items("index-batch", 5) if g[1] is not None]
    assert len(groups) == sqbench.INDEX_GROUPS
    assert {min((t & -t).bit_length() - 1, 3) for t, _ in groups} == {0, 1, 2, 3}
    assert all(t <= sqbench.INDEX_T_MAX for t, _ in groups)
    assert max(abs(c) for _, coords in groups for e in coords for c in e) > 2 ** 19


def test_counters_repeat_exactly():
    lib = sqbench.import_library(fresh=False)
    before = lib.driver.find_point
    cheap = {
        "golden-thue": [t for t in sqbench.make_items("golden-thue", 11) if t in (1, 10)],
        "golden-conic": [t for t in sqbench.make_items("golden-conic", 11) if t == 6],
        "box-oracle": [1],
        "index-batch": sqbench.make_items("index-batch", 11)[:4],
    }
    counts = {}
    for workload, items in cheap.items():
        counts[workload] = _traced_counts(lib, workload, items)
        assert counts[workload] == _traced_counts(lib, workload, items), workload
        assert all(isinstance(v, int) and v >= 0 for v in counts[workload].values())
    assert lib.driver.find_point is before
    batch = counts["index-batch"]
    assert batch["elements.index_oracle.calls"] == batch["indexcore.index_via_forms.calls"] > 0
