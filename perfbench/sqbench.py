"""Workloads, inputs and correctness checks of the sqindex benchmark.

A workload is a fixed set of items; the seed only fixes their order (and,
for box-oracle and index-batch, which items are drawn), so every seed does
about the same amount of work.  One pass runs each item once through the
library's public functions with their default settings and checks the
answer against the golden tables or against a second, independent route.

Workloads (see NOTES.md for the layer each one stresses):
  golden-thue   minimal_index on the 18 golden t dominated by Thue grid scans
  golden-conic  minimal_index on t = 8, 12, 16, 20, where the conic point
                search dominates, plus the Proven t = 6 and 36
  box-oracle    brute_force_minimal at the CLI default box t + 40
  index-batch   index_oracle against index_via_forms on seeded elements
"""

from __future__ import annotations

import importlib
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("fieldmodel", "elements", "indexcore", "driver", "goldens")

GOLDEN_T = (1, 2, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40,
            48, 64, 80, 96, 112, 128, 144, 240, 256)
CONIC_T = (6, 8, 12, 16, 20, 36)
THUE_T = tuple(t for t in GOLDEN_T if t not in CONIC_T)
BOX_MARGIN = 40  # the CLI's default --box is t + 40
# Every admissible t <= 20, as in acceptance criterion 5, in strata of
# neighbours.  A pass takes t = 1 and one t per triple, at position
# (seed + k) mod 3 in triple k: the box oracle's cost grows with t, so each
# position is used equally often and every seed does about the same work.
BOX_STRATA = ((1,), (2, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14),
              (15, 16, 17), (18, 19, 20))
INDEX_GROUPS = 64         # seeded parameters per index-batch pass
INDEX_PER_GROUP = 128     # seeded elements per parameter
INDEX_T_MAX = 10 ** 4
INDEX_COORD_BOX = 10 ** 6

WORKLOADS = ("golden-thue", "golden-conic", "box-oracle", "index-batch")

_LABEL = re.compile(r"Proven|BoundedSearchOnly\((\d+)\)")


class MissingLibrary(RuntimeError):
    """The sqindex sources are not in the checkout the benchmark runs from."""


def import_library(fresh: bool) -> SimpleNamespace:
    """The sqindex modules from ROOT/src; a fresh import drops cached ones first."""
    if fresh:
        for name in [n for n in sys.modules if n == "sqindex" or n.startswith("sqindex.")]:
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("sqindex")
    except ImportError as exc:
        raise MissingLibrary(f"cannot import sqindex from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise MissingLibrary(f"sqindex was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"sqindex.{m}") for m in MODULES})


# --- inputs ------------------------------------------------------------------

def _odd_part_squarefree(n: int) -> bool:
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 2
    return True


def _seeded_t(rng: random.Random, v2: int) -> int:
    """A valid family parameter t <= INDEX_T_MAX with v_2(t) = v2 (v2 = 3 means >= 3)."""
    while True:
        shift = v2 if v2 < 3 else rng.choice((3, 4, 5))
        t = rng.randrange(1, INDEX_T_MAX >> shift, 2) << shift
        if t != 3 and _odd_part_squarefree(t * t + 16):
            return t


def make_items(workload: str, seed: int) -> list:
    """The inputs of one pass; the same seed gives the same list.

    golden-*: t values.  box-oracle: t values (box t + 40).
    index-batch: (t, coords) groups; coords is None for a golden group,
    whose elements are the golden minimal elements of t.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "golden-thue":
        items = list(THUE_T)
    elif workload == "golden-conic":
        items = list(CONIC_T)
    elif workload == "box-oracle":
        items = [s[(seed + k) % len(s)] for k, s in enumerate(BOX_STRATA)]
    elif workload == "index-batch":
        items = [(t, None) for t in GOLDEN_T]
        for g in range(INDEX_GROUPS):
            t = _seeded_t(rng, g % 4)
            coords = [tuple(rng.randint(-INDEX_COORD_BOX, INDEX_COORD_BOX) for _ in range(4))
                      for _ in range(INDEX_PER_GROUP)]
            items.append((t, coords))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


# --- one pass ------------------------------------------------------------------

@dataclass
class Tally:
    """Outcome counts of the items run so far."""

    attempted: int = 0
    failed: int = 0
    proven: int = 0
    min_box: int | None = None
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "", proven: bool = False, box: int | None = None):
        """One checked item; `box` is the search box its answer is bounded by."""
        self.attempted += 1
        self.proven += proven
        self._note_box(box)
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.proven += other.proven
        self._note_box(other.min_box)
        self.errors += other.errors

    def _note_box(self, box: int | None) -> None:
        if box is not None and (self.min_box is None or box < self.min_box):
            self.min_box = box


def _golden_item(lib, t: int, tally: Tally) -> None:
    param = lib.fieldmodel.validate_parameter(t, allow_hypothesis_violation=True)
    res = lib.driver.minimal_index(param)
    want = lib.goldens.expected_minimal(param)
    label = _LABEL.fullmatch(res.rigor.label())
    if label is None:
        raise ValueError(f"unreadable rigor label {res.rigor.label()!r}")
    ok, box = (res.m, res.elements) == want, label.group(1)
    tally.record(ok, f"t={t}: got m={res.m}, expected m={want[0]}",
                 proven=ok and box is None, box=None if box is None else int(box))


def _box_item(lib, t: int, tally: Tally) -> None:
    param = lib.fieldmodel.validate_parameter(t)
    got = lib.driver.brute_force_minimal(param, t + BOX_MARGIN)
    want = lib.goldens.expected_minimal(param)
    # the box oracle is exhaustive and exact over its box, so a right answer is proven there
    tally.record(got == want, f"t={t}: box oracle m={got[0]}, expected m={want[0]}",
                 proven=got == want, box=t + BOX_MARGIN)


def _index_group(lib, t: int, coords, tally: Tally) -> None:
    el = lib.elements
    golden = coords is None
    param = lib.fieldmodel.validate_parameter(t, allow_hypothesis_violation=golden)
    want_m = None
    if golden:
        want_m, triples = lib.goldens.expected_minimal(param)
        coords = [(0, *e) for e in triples]
    for c in coords:
        try:
            e = el.AlgebraicInt(c)
            rep = el.to_power_rep(e, param)
            m_oracle = el.index_oracle(e, param)
            m_forms = lib.indexcore.index_via_forms(rep, param)
            scale = param.g // rep.d
            triple = el.triple_from_xyz(rep.x * scale, rep.y * scale, rep.z * scale, param)
        except Exception as exc:  # an exception is a failed item, not a crashed run
            tally.record(False, f"t={t} {c}: {type(exc).__name__}: {exc}")
            continue
        ok = (m_oracle == m_forms and triple == e.triple
              and (want_m is None or m_oracle == want_m))
        what = "" if ok else (f"t={t} {c}: oracle={m_oracle} forms={m_forms} "
                              f"golden={want_m} triple={triple}")
        tally.record(ok, what, proven=ok, box=INDEX_COORD_BOX)


def run_pass(lib, workload: str, items, tracer=None) -> Tally:
    """Run every item once and check it; an exception counts as a failed item."""
    tally = Tally()
    for pos, item in enumerate(items):
        t = item[0] if workload == "index-batch" else item
        if tracer is not None:
            tracer.item = f"{pos}:t={t}"
        one = Tally()
        try:
            if workload == "index-batch":
                _index_group(lib, t, item[1], one)
            elif workload == "box-oracle":
                _box_item(lib, t, one)
            else:
                _golden_item(lib, t, one)
        except Exception as exc:  # keep going: the failure is counted and reported
            one.record(False, f"t={t}: {type(exc).__name__}: {exc}")
        tally.add(one)
    return tally


def warm_up(lib, workload: str) -> None:
    """One untimed call on an input outside every timed set."""
    if workload.startswith("golden"):
        lib.driver.minimal_index(lib.fieldmodel.validate_parameter(7))
    elif workload == "box-oracle":
        lib.driver.brute_force_minimal(lib.fieldmodel.validate_parameter(21), 20)
    else:
        rng = random.Random("warm-up")
        coords = [tuple(rng.randint(-INDEX_COORD_BOX, INDEX_COORD_BOX) for _ in range(4))
                  for _ in range(8 * INDEX_PER_GROUP)]
        tally = Tally()
        _index_group(lib, 7, coords, tally)
        if tally.failed:
            raise ArithmeticError(f"warm-up failed: {tally.errors[0]}")
