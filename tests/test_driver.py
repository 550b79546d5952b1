from functools import cache
from itertools import product
from math import factorial, isqrt, prod
from pathlib import Path
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqindex.cli import MAX_BRUTE_BOX
from sqindex.fieldmodel import (MAX_SUPPORTED_T, V2Class, odd_square_divisor, v2_class,
                                validate_parameter)
from sqindex.elements import (AlgebraicInt, _basis_det, _mult_table, canonical_triple,
                              index_oracle, mult_matrix, sigma, triple_from_xyz)
from sqindex.indexcore import NotInRange, TernaryForm, family_forms, rhs_decompositions
from sqindex.conic import _det3, parametrize, thue_reduction
from sqindex.thue import (DEFAULT_THUE_BOUND, Rigor, bounded_search_multi, family_form,
                          solve_power_of_two)
from sqindex import driver
from sqindex.driver import (GaloisImage, Hit, VerificationError, _collect_solution,
                            _corner_table, _index_scan, branch_candidates, brute_force_minimal,
                            candidate_uv_pairs, enumerate_case2_triples, find_point, local_sieve,
                            minimal_index, minimal_index_for)
from sqindex.goldens import EXCEPTIONAL_T, GENERIC_SAMPLE_T, case2_golden, expected_minimal
from test_conic import _GOLDEN_OBSTRUCTED, _find_point_by_rows


def canon_set(rows):
    return {canonical_triple(tuple(r)) for r in rows}


def _case_candidates(param, m, case):
    """The elements `branch_candidates` finds at (param, m) on the cones of the case.

    Hit.case is "I" exactly on the v = 0 cone, a GaloisImage (case "sigma")
    lies on a case-II cone, and an element lies on one cone, so its records
    never mix the cases.
    """
    found, _ = branch_candidates(param, m)
    for records in found.values():
        assert all((r.case == "I") == (r.v == 0) for r in records)
        assert len({r.v == 0 for r in records}) == 1
    return {canon: records for canon, records in found.items()
            if (next(iter(records)).v == 0) == (case == "I")}


def test_case1_generic_v0():
    param = validate_parameter(5)
    found = _case_candidates(param, 2, "I")
    assert set(found) == canon_set([(1, 0, 0), (6, 5, -2), (5, 2, -1), (0, 3, -1)])
    assert all(hits and {h.case for h in hits} == {"I"} for hits in found.values())


def test_case1_generic_v3plus():
    t = 40
    param = validate_parameter(t)
    found = _case_candidates(param, 16, "I")
    assert all(hits and {h.case for h in hits} == {"I"} for hits in found.values())
    assert set(found) == canon_set([
        (1, 0, 0), (9 + 2 * t, -4 - 4 * t, -4),
        ((10 + t) // 2, -4 - 2 * t, -2), ((6 + 3 * t) // 2, -2 * t, -2)])


def test_case1_empty_when_not_power_case():
    param = validate_parameter(5)
    found = _case_candidates(param, 1, "I")  # l = 5, no i
    assert found == {}


def test_case1_t1_extra_solutions():
    # the base Thue sets for t = 1 contribute four extra index-2 elements
    param = validate_parameter(1)
    found = _case_candidates(param, 2, "I")
    assert set(found) == canon_set([
        (1, 0, 0), (6, 1, -2), (3, 0, -1), (2, 1, -1),
        (0, 1, 1), (0, -3, 2), (-25, -2, 8), (-25, -6, 9)])


def test_case2_uv_sweep_examples():
    assert candidate_uv_pairs(validate_parameter(12), 3) == \
        [(-28, 2), (-18, 1), (14, 1), (20, 2)]
    assert candidate_uv_pairs(validate_parameter(2), 1) == [(-6, 1), (2, 1)]
    assert candidate_uv_pairs(validate_parameter(7), 2) == \
        [(-20, 2), (-3, 1), (-1, 1), (12, 2)]
    assert candidate_uv_pairs(validate_parameter(5), 2) == []


@pytest.mark.parametrize("t", [1, 2, 4, 8])  # one t per 2-adic class
def test_candidate_uv_pairs_rejects_m_out_of_range(t):
    param = validate_parameter(t)
    for m in (0, param.n + 1):
        with pytest.raises(NotInRange):
            candidate_uv_pairs(param, m)


def test_case2_t2_produces_all_ten_generators():
    param = validate_parameter(2)
    _, rigor = branch_candidates(param, 1)
    found = _case_candidates(param, 1, "II")
    assert not rigor.proven
    want = canon_set([(4, 2, -1), (-13, -9, 4), (-2, 1, 0), (1, 1, 0),
                      (-8, -3, 2), (-12, -4, 3), (0, -4, 1), (6, 5, -2),
                      (-1, 1, 0), (0, 1, 0)])
    assert set(found) == want


def test_case2_t7_empty():
    param = validate_parameter(7)
    for m in (1, 2):
        found = _case_candidates(param, m, "II")
        assert found == {}


def test_case2_obstructed_branches_are_proven_empty():
    # both (u, v) at t = 8, m = 3 give cones with no rational point; the sieve closes them
    param = validate_parameter(8)
    assert candidate_uv_pairs(param, 3) == [(-14, 1), (10, 1)]
    assert branch_candidates(param, 3) == ({}, Rigor.certain())


def test_case2_t12():
    param = validate_parameter(12)
    found = _case_candidates(param, 3, "II")
    assert set(found) == canon_set([(5, 6, -1), (4, 6, -1), (-2, -20, 3),
                                    (-1, 7, -1), (8, 19, -3), (2, -7, 1)])


def test_minimal_index_examples():
    res = minimal_index_for(4)
    assert res.m == 1 and len(res.elements) == 6
    res = minimal_index_for(1)
    assert res.m == 2 and len(res.elements) == 8
    res = minimal_index_for(32)
    assert res.m == 16 and len(res.elements) == 10


def test_minimal_index_verifies_both_oracles():
    from sqindex.elements import AlgebraicInt, index_oracle
    from sqindex.indexcore import index_via_forms
    from sqindex.elements import to_power_rep
    res = minimal_index_for(12)
    param = validate_parameter(12)
    for trip in res.elements:
        e = AlgebraicInt((0, *trip))
        assert index_oracle(e, param) == res.m
        assert index_via_forms(to_power_rep(e, param), param) == res.m


def test_minimal_index_rigor_flags():
    assert minimal_index_for(6).rigor.proven
    # every case-II branch at or below m is closed by the local sieve
    assert minimal_index_for(5).rigor.proven  # the m = 1 pair closes mod 32
    assert minimal_index_for(48).rigor.proven
    # a residual cone ran a Thue search
    assert minimal_index_for(2).rigor == Rigor.bounded(DEFAULT_THUE_BOUND)
    assert minimal_index_for(64).rigor == Rigor.bounded(DEFAULT_THUE_BOUND)


def test_minimal_index_hypothesis_flag():
    res = minimal_index_for(28, allow_hypothesis_violation=True)
    assert res.m == 7 and not res.hypothesis_ok


def test_trace_provenance_present():
    # the searched cone's elements carry Thue Hits, its mate's carry sigma-images
    res = minimal_index_for(12)
    assert set(res.trace) == set(res.elements)
    kinds = set()
    for records in res.trace.values():
        assert records and records == tuple(sorted(set(records)))
        kind = {(type(r), r.case) for r in records}
        assert kind in ({(Hit, "II")}, {(GaloisImage, "sigma")})
        kinds |= kind
    assert len(kinds) == 2


def test_enumerate_contains_key_triples():
    triples = enumerate_case2_triples(256)
    keys = {(c.t, c.u, c.v) for c in triples}
    for need in ((2, 0, 1), (2, -4, 1), (12, 20, 2), (256, 254, 1), (256, -258, 1)):
        assert need in keys
    assert (5, 22, 5) in keys  # an m=1 candidate absent from the published list


def test_enumerate_provenance_identities():
    for c in enumerate_case2_triples(128):
        lhs = c.a1 ** 2 * 4 ** c.i + c.sign_inner * c.a2 * 2 ** (c.l - c.i)
        assert lhs == c.v * c.v * (c.t * c.t + 16)
        assert c.u + 2 * c.v == c.sign_outer * c.a1 * 2 ** c.i
        assert 1 <= c.implied_m
        assert c.a1 * c.a2 * 2 ** c.l * validate_parameter(
            c.t, True).n == validate_parameter(c.t, True).g ** 6 * c.implied_m


def test_enumerate_golden_subset():
    keys = {(c.t, c.u, c.v) for c in enumerate_case2_triples(256)}
    for t, u, v in case2_golden():
        assert (t, u, v) in keys or (t, -u, -v) in keys


def _case2_solutions():
    """(biggest sum, {(t, m): {(u, v)}}) from F = s (s^2 - (t^2+16) v^2) = +-N, s = u + 2v.

    N = g^6 m / n; s runs over the signed divisors of N, so v^2 (t^2 + 16) = s^2 -+ N/s.
    """
    biggest, pairs = 0, {}
    for t0 in (1, 2, 4, 8):  # one t per 2-adic class
        rep = validate_parameter(t0)
        for m in range(1, rep.n + 1):
            big_n = rep.g ** 6 * m // rep.n
            for s in (d * sign for d in range(1, big_n + 1) if big_n % d == 0 for sign in (1, -1)):
                for eps in (1, -1):
                    total = s * s - eps * big_n // s
                    biggest = max(biggest, total)
                    for v in range(1, isqrt(max(total, 0) // 17) + 1):
                        tt, r = divmod(total, v * v)
                        t = isqrt(tt - 16)
                        if r == 0 and t * t == tt - 16 and t != 3 and \
                                v2_class(t) is rep.v2_class:
                            assert family_forms(t)[0](s - 2 * v, v) == eps * big_n
                            pairs.setdefault((t, m), set()).add((s - 2 * v, v))
    return biggest, pairs


def test_case2_cones_of_the_whole_family():
    # v^2 (t^2 + 16) is one of the sums and v >= 1, so the largest sum bounds t
    biggest, pairs = _case2_solutions()
    assert biggest == 2 ** 24 + 1
    bound = isqrt(biggest - 16)
    cones = enumerate_case2_triples(bound)
    assert cones == enumerate_case2_triples(MAX_SUPPORTED_T)
    assert len(cones) == 108 and len({c.t for c in cones}) == 26
    assert max(c.t for c in cones) == 256
    assert {(c.t, c.implied_m, c.u, c.v) for c in cones} == \
        {(t, m, u, v) for (t, m), uv in pairs.items() for u, v in uv}

    # the per-t lookup lists exactly the solutions at each (t, m), for every t <= bound
    for t in range(1, bound + 1):
        if t == 3:
            continue
        param = validate_parameter(t, allow_hypothesis_violation=True)
        for m in range(1, param.n + 1):
            assert candidate_uv_pairs(param, m) == sorted(pairs.get((t, m), ()))

    # each cone is nonsingular; the local sieve closes 74 of them, the 22 without a
    # rational point among them; find_point gives a point on the cone or raises, and
    # it gives one on each of the 17 searched cones (s > 0) the sieve leaves open,
    # which parametrize through it, as their 17 mates and the 52 soluble cones the
    # sieve closes do through the row scan's point; each reduced Thue form is totally
    # real with c0 != 0, as the bounded search requires
    closed, raised, mates = {}, set(), set()
    for c in cones:
        _, q1, q2 = family_forms(c.t)
        q0 = TernaryForm.combine(c.v, q1, -c.u, q2)
        cxx, cxy, cyy, cxz, cyz, czz = q0.coeffs
        assert cxx == c.v != 0
        assert _det3(((2 * cxx, cxy, cxz), (cxy, 2 * cyy, cyz), (cxz, cyz, 2 * czz))) != 0
        key = (c.t, c.implied_m, c.u, c.v)
        try:
            point = find_point(c.t, c.u, c.v)
            assert point != (0, 0, 0) and q0(*point) == 0, key
        except ValueError:
            raised.add(key)
            point = None
        modulus = local_sieve(validate_parameter(c.t, allow_hypothesis_violation=True), c.u, c.v)
        if modulus is not None:
            closed[key] = modulus
            if key not in _SIEVE_CLOSED:
                continue
            point = _find_point_by_rows(q0)
        elif c.u + 2 * c.v < 0:
            mates.add(key)
            point = _find_point_by_rows(q0)
        par = parametrize(q0, point)
        assert _det3(par.rows) != 0
        qform, target = (q1, c.u) if c.u != 0 else (q2, c.v)
        assert thue_reduction(par, qform, target).form.totally_real()
    assert (len(cones), len(closed), len(cones) - len(closed)) == (108, 74, 34)
    assert len(mates) == 17 and _GOLDEN_OBSTRUCTED <= raised <= set(closed) | mates


# (t, m, u, v) -> modulus of every soluble case-II cone of the family the local sieve closes
_SIEVE_CLOSED = {
    (1, 1, -12, 2): 32, (1, 1, 4, 2): 32, (2, 2, -4, 1): 32, (2, 2, 0, 1): 32,
    (4, 1, -22, 3): 32, (4, 1, 10, 3): 32, (4, 4, -20, 2): 32, (4, 4, 12, 2): 32,
    (4, 8, -44, 6): 32, (4, 8, 20, 6): 32, (5, 1, -42, 5): 32, (5, 1, 22, 5): 32,
    (7, 2, -20, 2): 32, (7, 2, -3, 1): 32, (7, 2, -1, 1): 32, (7, 2, 12, 2): 32,
    (8, 1, -6, 1): 32, (8, 1, 2, 1): 32, (8, 8, -12, 2): 32, (8, 8, 4, 2): 32,
    (8, 11, -54, 5): 32, (8, 11, -10, 3): 32, (8, 11, -2, 3): 32, (8, 11, 34, 5): 32,
    (16, 1, -18, 1): 32, (16, 1, 14, 1): 32, (16, 4, -6, 1): 32, (16, 4, 2, 1): 32,
    (24, 9, -6, 1): 32, (24, 9, 2, 1): 32, (32, 2, -34, 1): 5, (32, 2, 30, 1): 5,
    (32, 16, -6, 1): 32, (32, 16, 2, 1): 32, (48, 3, -50, 1): 32, (48, 3, 46, 1): 32,
    (80, 5, -82, 1): 32, (80, 5, 78, 1): 32, (112, 7, -114, 1): 32, (112, 7, 110, 1): 32,
    (128, 8, -130, 1): 5, (128, 8, 126, 1): 5, (144, 9, -146, 1): 32, (144, 9, 142, 1): 32,
    (176, 11, -178, 1): 32, (176, 11, 174, 1): 32, (192, 12, -194, 1): 5,
    (192, 12, 190, 1): 5, (208, 13, -210, 1): 32, (208, 13, 206, 1): 32,
    (240, 15, -242, 1): 32, (240, 15, 238, 1): 32,
}


@cache
def _family_cones():
    """(cone, param, Q0, closing modulus) for the 108 case-II cones of the family."""
    out = []
    for c in enumerate_case2_triples(256):
        param = validate_parameter(c.t, allow_hypothesis_violation=True)
        _, q1, q2 = family_forms(c.t)
        q0 = TernaryForm.combine(c.v, q1, -c.u, q2)
        out.append((c, param, q0, local_sieve(param, c.u, c.v)))
    return tuple(out)


def _soluble_cones():
    """The 86 entries of `_family_cones` whose cone has a rational point."""
    return tuple((c, param, q0, modulus) for c, param, q0, modulus in _family_cones()
                 if (c.t, c.implied_m, c.u, c.v) not in _GOLDEN_OBSTRUCTED)


def test_local_sieve_closes_exactly_the_pinned_cones():
    closed = {(c.t, c.implied_m, c.u, c.v): modulus
              for c, _, _, modulus in _family_cones() if modulus is not None}
    assert closed == {**_SIEVE_CLOSED, **dict.fromkeys(_GOLDEN_OBSTRUCTED, 32)}
    assert len(_soluble_cones()) == 86
    # the closed branches never reach the conic: branch_candidates proves them empty
    param = validate_parameter(5)
    assert candidate_uv_pairs(param, 1) == [(-42, 5), (22, 5)]
    assert branch_candidates(param, 1) == ({}, Rigor.certain())


@pytest.mark.parametrize("t", [1, 2, 4, 8])  # one t per 2-adic class
def test_local_sieve_tables_match_brute_force(t):
    # every residue point in pure Python; triple_from_xyz on the representative
    # decides the congruences, which only depend on x, y, z mod b11*b22; the
    # lifting verdict of every residue pair (a, b) must be its membership
    param = validate_parameter(t)
    _, q1, q2 = family_forms(t)
    _, (_, b11, _, _), (_, _, b22, _), _ = param.basis_num
    reached = {}
    for p, k in driver._SIEVE_MODULI:
        n = p ** k
        want = set()
        for x, y, z in product(range(n), repeat=3):
            if n % (b11 * b22) == 0 and triple_from_xyz(x, y, z, param) is None:
                continue
            want.add((q1(x, y, z) % n, q2(x, y, z) % n))
        got = {(a, b) for a in range(n) for b in range(n)
               if driver._reached(p, k, t % n, param.v2_class, a, b)}
        assert got == want
        reached[n] = want
    # the verdict tests both signs; mod 32 some (a, b) is reached while (-a, -b) is not
    assert any(((-a) % 32, (-b) % 32) not in reached[32] for a, b in reached[32])
    for u, v in product(range(-32, 33), repeat=2):
        want = next((n for n in (32, 5)
                     if (u % n, v % n) not in reached[n]
                     and (-u % n, -v % n) not in reached[n]), None)
        assert local_sieve(param, u, v) == want, (u, v)


@cache
def _reachable_pairs_of_t(param, n):
    """The sieve table of param built from its own t and basis, with no residue key.

    numpy over all n^3 residue points: the referee of the lifting verdicts.
    """
    _, q1, q2 = family_forms(param.t)
    x, y, z = (c.ravel() for c in np.indices((n, n, n), dtype=np.int32))
    _, (_, b11, _, _), (_, b21, b22, _), (_, b31, b32, _) = param.basis_num
    if n % (b11 * b22) == 0:
        d = (y - z * b32) % n
        keep = (d % b22 == 0) & ((x - z * b31 - d // b22 * b21) % b11 == 0)
        x, y, z = x[keep], y[keep], z[keep]
    monomials = (x * x, x * y, y * y, x * z, y * z, z * z)

    def values(q):
        return sum(c % n * mono for c, mono in zip(q.coeffs, monomials)) % n

    table = np.zeros(n * n, dtype=bool)
    table[values(q1) * n + values(q2)] = True
    table.flags.writeable = False
    return table.reshape(n, n)


def _sieve_by_tables(param, u, v):
    """`local_sieve` read off the referee tables of `_reachable_pairs_of_t`."""
    return next((n for n in (32, 5) if not (_reachable_pairs_of_t(param, n)[u % n, v % n]
                                            or _reachable_pairs_of_t(param, n)[-u % n, -v % n])),
                None)


def test_sieve_tables_keyed_by_t_mod_n_match_the_per_t_build():
    # the verdict for N is a function of (t mod N, 2-adic class, u mod N, v mod N)
    # (`local_sieve`); every valid t <= 300 covers the t of the 108 family cones
    # and the 24 golden t, and each of them is asked about every family cone
    ts = [t for t in range(1, 301) if t != 3]
    cones = {(c.u, c.v) for c, *_ in _family_cones()}
    assert {c.t for c, *_ in _family_cones()} | set(EXCEPTIONAL_T + GENERIC_SAMPLE_T) <= set(ts)
    for t in ts:
        param = validate_parameter(t, allow_hypothesis_violation=True)
        for u, v in cones:
            assert local_sieve(param, u, v) == _sieve_by_tables(param, u, v), (t, u, v)
    # each cache is bounded by its key space, whatever the callers ask
    assert driver._lift_start.cache_info().currsize <= 32 + 5 * 4
    assert driver._reached.cache_info().currsize <= 32 ** 3 + 5 * 4 * 5 ** 2
    # the lifting needs Hessians that vanish mod p; mod 3^2 they do not
    with pytest.raises(ArithmeticError, match="Hessian"):
        driver._lift_start(3, 2, 1, V2Class.V0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10 ** 4).filter(lambda t: t != 3),
       st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
@example(16, 14, 1)  # the largest lifting search of the family's verdicts
def test_local_sieve_matches_the_tables_on_random_branches(t, u, v):
    param = validate_parameter(t, allow_hypothesis_violation=True)
    assert local_sieve(param, u, v) == _sieve_by_tables(param, u, v)


def test_import_builds_no_cached_table():
    # every table is built on first use, so importing the package costs no build;
    # a fresh process, since this one has built them all.  The sieve over the
    # 108 family cones asks at most four verdicts per cone.
    code = ("import sqindex\n"
            "from sqindex import driver, elements\n"
            "caches = (driver._cones, driver._reached, driver._lift_start,\n"
            "          elements._mult_table, elements._sigma_columns)\n"
            "print([f.cache_info().currsize for f in caches])\n"
            "from sqindex.fieldmodel import validate_parameter\n"
            "for c in driver.enumerate_case2_triples(256):\n"
            "    driver.local_sieve(validate_parameter(c.t, True), c.u, c.v)\n"
            "print(*(f.cache_info().currsize for f in (driver._reached, driver._lift_start)))\n")
    src = str(Path(__file__).parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    first, second = done.stdout.splitlines()
    assert first == "[0, 0, 0, 0, 0]"
    verdicts, steps = map(int, second.split())
    assert verdicts <= 4 * 108 and steps <= 32 + 5 * 4


def test_numpy_loads_only_for_the_box_oracle():
    # import, element indices, every minimal index, bounded Thue searches and the
    # verify-paper and thue commands never load numpy; the box oracle does
    code = """
import sys
import sqindex, sqindex.cli
from sqindex import (AlgebraicInt, brute_force_minimal, family_form, index_oracle,
                     index_via_forms, minimal_index, solve_power_of_two, to_power_rep,
                     validate_parameter)
from sqindex.thue import bounded_search_multi
assert "numpy" not in sys.modules, "import"
param = validate_parameter(12)
e = AlgebraicInt((3, 5, 6, -1))
assert index_oracle(e, param) == index_via_forms(to_power_rep(e, param), param) > 0
assert "numpy" not in sys.modules, "element"
for t in (10, 1000):
    res = minimal_index(validate_parameter(t))
    assert res.rigor.proven, t
assert "numpy" not in sys.modules, "minimal_index"
sols = bounded_search_multi(family_form(5), [1, -1], 50)
assert sorted(sols[1]) == sorted(solve_power_of_two(5, 1)), sols
assert "numpy" not in sys.modules, "bounded_search_multi"
assert not minimal_index(validate_parameter(64)).rigor.proven
assert "numpy" not in sys.modules, "bounded minimal_index"
assert sqindex.cli.main(["verify-paper", "--t", "2,64"]) == 0
assert "numpy" not in sys.modules, "verify-paper"
assert sqindex.cli.main(["thue", "5", "12", "--bound", "50"]) == 0
assert "numpy" not in sys.modules, "thue"
res = minimal_index(validate_parameter(5))
assert brute_force_minimal(validate_parameter(5), 10) == (res.m, res.elements)
assert "numpy" in sys.modules
print("ok")
"""
    src = str(Path(__file__).parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def test_local_sieve_same_verdict_on_sigma_pairs():
    # u = sigma*a1*2^i - 2v: the partner of (u, v) is (-u - 4v, v)
    verdicts = {(c.t, c.u, c.v): modulus for c, _, _, modulus in _family_cones()}
    assert len(verdicts) == 108
    for (t, u, v), modulus in verdicts.items():
        assert verdicts[(t, -u - 4 * v, v)] == modulus


def test_sigma_pairs_of_the_whole_family():
    # sigma(xi) = (xi - 1)/(xi + 1) generates Gal(K/Q) and the index is Galois-invariant,
    # so each cone (u, v) has the mate (-u - 4v, v) at the same (t, m): s = u + 2v and
    # F change sign, and the local sieve gives both the same verdict
    cones = {(c.t, c.implied_m, c.u, c.v) for c in enumerate_case2_triples(4095)}
    assert len(cones) == 108
    for t, m, u, v in cones:
        mate = (t, m, -u - 4 * v, v)
        assert mate in cones and mate != (t, m, u, v)
        f = family_forms(t)[0]
        assert f(-u - 4 * v, v) == -f(u, v) != 0
        param = validate_parameter(t, allow_hypothesis_violation=True)
        assert local_sieve(param, *mate[2:]) == local_sieve(param, u, v)
    assert sum(u + 2 * v > 0 for _, _, u, v in cones) == 54


def _both_cones(param, m, thue_bound=DEFAULT_THUE_BOUND):
    """`branch_candidates` as it searched both cones of each sigma-pair: the referee.

    A mate (s < 0) takes its base point from the row scan, as `find_point` has none.
    """
    t = param.t
    a, l = rhs_decompositions(param, m)
    cones = [(1 << l // 3, 0)] if a == 1 and l % 3 == 0 else []
    _, q1, q2 = family_forms(t)
    out = {}
    rigor = Rigor.certain()
    for u, v in cones + candidate_uv_pairs(param, m):
        if local_sieve(param, u, v) is not None:
            continue
        q0 = TernaryForm.combine(v, q1, -u, q2)
        par = parametrize(q0, find_point(t, u, v) if u + 2 * v > 0 else _find_point_by_rows(q0))
        qform, target = (q1, u) if u != 0 else (q2, v)
        red = thue_reduction(par, qform, target)
        if not red.instances:
            continue
        targets = {w for inst in red.instances for w in (inst.rhs, -inst.rhs)}
        if red.form == family_form(t) and not any(w & (w - 1) for w in map(abs, targets)):
            sols = {w: solve_power_of_two(t, w) for w in targets}
        else:
            sols = bounded_search_multi(red.form, targets, thue_bound)
        if rigor.proven:
            rigor = next((sol.rigor for sol in sols.values() if not sol.rigor.proven), rigor)
        for inst in red.instances:
            for w in (inst.rhs, -inst.rhs):
                for p, q in sols[w]:
                    _collect_solution(param, par, inst.k, p, q, w, (u, v), out)
    return out, rigor


def _cone_t_pairs():
    """(param, m) for every m at the 26 t that have case-II cones."""
    for t in sorted({c.t for c in enumerate_case2_triples(4095)}):
        param = validate_parameter(t, allow_hypothesis_violation=True)
        for m in range(1, param.n + 1):
            yield param, m


def test_one_search_per_sigma_pair_matches_searching_both_cones(monkeypatch):
    # the mate's elements are the sigma-images of its pair's: elements and rigor agree
    # with searching both cones at every (t, m) of the cone t, and so do the Hits of
    # every element found on a searched cone; no mate (s < 0) is given a base point,
    # parametrized, reduced or searched: each call below is fed by the one before it
    calls = {"find_point": [], "parametrize": [], "thue_reduction": [], "bounded": []}

    def find_point_(t, u, v):
        assert u + 2 * v > 0, (t, u, v)
        calls["find_point"].append(find_point(t, u, v))
        return calls["find_point"][-1]

    def parametrize_(q0, base):
        assert base == calls["find_point"][-1]
        calls["parametrize"].append(parametrize(q0, base))
        return calls["parametrize"][-1]

    def thue_reduction_(par, qform, target):
        assert par is calls["parametrize"][-1]
        calls["thue_reduction"].append(thue_reduction(par, qform, target))
        return calls["thue_reduction"][-1]

    def bounded(form, targets, bound):
        assert form is calls["thue_reduction"][-1].form
        calls["bounded"].append(form)
        return bounded_search_multi(form, targets, bound)

    pairs, images = 0, 0
    for param, m in _cone_t_pairs():
        want, want_rigor = _both_cones(param, m)
        for name, fake in (("find_point", find_point_), ("parametrize", parametrize_),
                           ("thue_reduction", thue_reduction_), ("bounded_search_multi", bounded)):
            monkeypatch.setattr(driver, name, fake)
        got, rigor = branch_candidates(param, m)
        monkeypatch.undo()
        assert (got.keys(), rigor) == (want.keys(), want_rigor), (param.t, m)
        for canon, records in got.items():
            hits = {r for r in records if isinstance(r, Hit)}
            assert hits == {h for h in want[canon] if h.u + 2 * h.v > 0}, (param.t, m, canon)
            images += not hits
        pairs += 1
    assert pairs == 330 and images > 0
    assert len(calls["find_point"]) == len(calls["parametrize"]) == len(calls["thue_reduction"])
    assert len(calls["bounded"]) == 17  # one per open sigma-pair of case-II cones; 34 are open


def test_sigma_images_are_recorded_against_a_searched_element():
    # at every (t, m) of the cone t: an element with no Hit has GaloisImage records only;
    # each names an element `of` with Hits on the searched cone, sigma^power(of) is the
    # element, power 2 names the searched cone and odd powers its mate (-u - 4v, v)
    records_seen, powers = 0, set()
    for param, m in _cone_t_pairs():
        found, _ = branch_candidates(param, m)
        for canon, records in found.items():
            if any(isinstance(r, Hit) for r in records):
                assert all(isinstance(r, Hit) for r in records)
                continue
            for r in records:
                assert isinstance(r, GaloisImage) and r.case == "sigma"
                cones = {(h.u, h.v) for h in found[r.of] if isinstance(h, Hit)}
                assert len(cones) == 1, (param.t, m, r)
                (u, v), = cones
                assert u + 2 * v > 0
                assert (r.u, r.v) == ((u, v) if r.power == 2 else (-u - 4 * v, v)), r
                e = AlgebraicInt((0, *r.of))
                for _ in range(r.power):
                    e = sigma(e, param)
                assert canonical_triple(e.triple) == canon, (param.t, m, r)
                records_seen += 1
                powers.add(r.power)
    assert records_seen > 0 and powers == {1, 3}  # the default box finds whole sigma^2-orbits


def test_small_boxes_keep_the_elements_sigma_stable():
    # with a box too small to hold every solution, the searched cone's elements are
    # closed under sigma^2 (which keeps the cone) beside their images on the mate, so
    # the sigma-check of minimal_index holds for any box, and every element is found
    # (it has Hits) or recorded as the sigma-image of a found one
    powers = set()
    for t in (2, 8, 12, 16, 20, 24, 28, 32):
        param = validate_parameter(t, allow_hypothesis_violation=True)
        for bound in (1, 2, 5, 10):
            res = minimal_index(param, bound)
            assert res.rigor == Rigor.bounded(bound)
            for canon in res.elements:
                image = canonical_triple(sigma(AlgebraicInt((0, *canon)), param).triple)
                assert image in res.elements, (t, bound, canon)
                records = res.trace[canon]
                if not all(isinstance(r, Hit) for r in records):
                    assert all(any(isinstance(h, Hit) for h in res.trace[r.of])
                               for r in records), (t, bound, canon)
                    powers |= {r.power for r in records}
    assert powers == {1, 2, 3}


def test_a_sigma_image_off_its_cone_raises(monkeypatch):
    # with sigma the identity, each image lies on the searched cone, not on its mate
    param = validate_parameter(12)
    assert branch_candidates(param, 3)[0]
    monkeypatch.setattr(driver, "sigma", lambda e, p: e)
    with pytest.raises(VerificationError, match="is not on the cone"):
        branch_candidates(param, 3)


def test_a_thue_point_off_its_cone_raises():
    # the Thue solutions of the searched cone (20, 2) at t = 12, m = 3 give elements on it;
    # collected against its mate (-28, 2), the shared on-cone check raises, never drops them
    param = validate_parameter(12)
    (u, v), mate = (20, 2), (-28, 2)
    assert {(u, v), mate} <= set(candidate_uv_pairs(param, 3))
    _, q1, q2 = family_forms(12)
    par = parametrize(TernaryForm.combine(v, q1, -u, q2), find_point(12, u, v))
    red = thue_reduction(par, q1, u)
    sols = bounded_search_multi(red.form, {w for inst in red.instances
                                           for w in (inst.rhs, -inst.rhs)}, DEFAULT_THUE_BOUND)
    points = [(inst.k, p, q, w) for inst in red.instances
              for w in (inst.rhs, -inst.rhs) for p, q in sols[w]]
    found = {}
    for point in points:
        _collect_solution(param, par, *point, (u, v), found)
    assert found
    with pytest.raises(VerificationError, match="is not on the cone"):
        for point in points:
            _collect_solution(param, par, *point, mate, {})


def test_a_cone_without_its_mate_raises(monkeypatch):
    param = validate_parameter(12)
    pairs = candidate_uv_pairs(param, 3)
    assert pairs and all((-u - 4 * v, v) in pairs for u, v in pairs)
    for drop in pairs:
        monkeypatch.setattr(driver, "candidate_uv_pairs",
                            lambda p, m, drop=drop: [uv for uv in pairs if uv != drop])
        with pytest.raises(VerificationError, match="not sigma-pairs"):
            branch_candidates(param, 3)


def test_minimal_index_sigma_check_raises_on_a_missing_image(monkeypatch):
    param = validate_parameter(12)
    found, rigor = branch_candidates(param, 3)
    dropped = dict(sorted(found.items())[1:])
    monkeypatch.setattr(driver, "branch_candidates",
                        lambda p, m, b: (dropped, rigor) if m == 3 else ({}, Rigor.certain()))
    with pytest.raises(VerificationError, match="sigma-image"):
        driver.minimal_index(param)


def test_local_sieve_closed_branches_have_no_bounded_thue_solutions():
    # differential: the search the sieve skips finds nothing that maps to an element
    bound = 10 ** 3
    searched = 0
    for c, param, q0, modulus in _soluble_cones():
        if modulus is None:
            continue
        _, q1, q2 = family_forms(c.t)
        par = parametrize(q0, _find_point_by_rows(q0))
        qform, target = (q1, c.u) if c.u != 0 else (q2, c.v)
        red = thue_reduction(par, qform, target)
        if not red.instances:
            continue
        targets = {w for inst in red.instances for w in (inst.rhs, -inst.rhs)}
        sols = bounded_search_multi(red.form, targets, bound)
        out = {}
        for inst in red.instances:
            for w in (inst.rhs, -inst.rhs):
                for p, q in sols[w]:
                    _collect_solution(param, par, inst.k, p, q, w, (c.u, c.v), out)
        assert out == {}, (c.t, c.u, c.v)
        searched += 1
    assert searched > 0


def _case1_cones(ts):
    """(param, m, u) for the case-I cone (u, 0), u = 2^(l/3), of every m at each t."""
    for t in ts:
        param = validate_parameter(t, allow_hypothesis_violation=True)
        for m in range(1, param.n + 1):
            a, l = rhs_decompositions(param, m)
            if a == 1 and l % 3 == 0:
                yield param, m, 1 << l // 3


def _case1_reduction(param, u):
    """The parametrization of the case-I cone (u, 0) of param and its Thue reduction."""
    _, q1, q2 = family_forms(param.t)
    par = parametrize(TernaryForm.combine(0, q1, -u, q2), find_point(param.t, u, 0))
    return par, thue_reduction(par, q1, u)


def test_solver_choice_over_the_family():
    # the case-I cone of every class and every m with 3 | l reduces to F_t with
    # right sides +-2^e only, so it takes the complete solver; one t per 2-adic
    # class plus the largest supported t
    ts = (1, 2, 4, 8, MAX_SUPPORTED_T)
    cones = list(_case1_cones(ts))
    assert {param.t for param, _, _ in cones} == set(ts)
    for param, m, u in cones:
        _, red = _case1_reduction(param, u)
        assert red.form == family_form(param.t), (param.t, m)
        assert red.instances and all(inst.rhs & (inst.rhs - 1) == 0
                                     for inst in red.instances), (param.t, m)
    # no residual case-II cone reduces to F_t, so each takes the bounded search
    residual = [(c, q0) for c, _, q0, modulus in _family_cones() if modulus is None]
    assert len(residual) == 34
    for c, q0 in residual:
        _, q1, q2 = family_forms(c.t)
        par = parametrize(q0, find_point(c.t, c.u, c.v) if c.u + 2 * c.v > 0
                          else _find_point_by_rows(q0))
        qform, target = (q1, c.u) if c.u != 0 else (q2, c.v)
        assert thue_reduction(par, qform, target).form != family_form(c.t), (c.t, c.u, c.v)


def test_branch_rigor_comes_from_the_solvers_that_ran(monkeypatch):
    # every m at one t per 2-adic class and at t = 10, 12: the family form goes to the
    # complete solver, every other form to the bounded search, and a branch set is
    # proven exactly when no bounded search ran
    calls = []

    def power_of_two(t, w):
        calls.append(("power", family_form(t)))
        return solve_power_of_two(t, w)

    def bounded(form, targets, bound):
        calls.append(("bounded", form))
        return bounded_search_multi(form, targets, bound)

    monkeypatch.setattr(driver, "solve_power_of_two", power_of_two)
    monkeypatch.setattr(driver, "bounded_search_multi", bounded)
    kinds = set()
    for t in (1, 2, 4, 8, 10, 12):
        param = validate_parameter(t)
        for m in range(1, param.n + 1):
            calls.clear()
            _, rigor = branch_candidates(param, m, 500)
            for kind, form in calls:
                assert (form == family_form(t)) == (kind == "power"), (t, m)
            ran = {kind for kind, _ in calls}
            assert rigor == (Rigor.bounded(500) if "bounded" in ran else Rigor.certain())
            kinds |= ran
    assert kinds == {"power", "bounded"}


def test_local_sieve_closed_case1_branches_have_no_solutions():
    # differential: on every case-I branch the sieve closes at t < 600, the complete
    # solver the sieve skips finds no pair, so no element.  They are the
    # u = 8 branches (l = 9), all closed mod 32, whose right sides +-k^2/8 are odd
    # powers of two, so the parity lift of the solver gives no pair at all
    branches, closed = 0, {}
    for param, m, u in _case1_cones(t for t in range(1, 600) if t != 3):
        branches += 1
        modulus = local_sieve(param, u, 0)
        if modulus is None:
            continue
        closed[u, modulus] = closed.get((u, modulus), 0) + 1
        _, red = _case1_reduction(param, u)
        assert red.form == family_form(param.t)
        for inst in red.instances:
            for w in (inst.rhs, -inst.rhs):
                assert len(solve_power_of_two(param.t, w)) == 0, (param.t, m, w)
    assert branches == 747 and closed == {(8, 32): 149}


def test_brute_force_examples():
    param = validate_parameter(2)
    m, elems = brute_force_minimal(param, 20)
    assert m == 1 and len(elems) == 10
    param = validate_parameter(12)
    m, elems = brute_force_minimal(param, 30)
    assert m == 3 and len(elems) == 6
    param = validate_parameter(1)
    m, elems = brute_force_minimal(param, 10)
    # six of the eight index-2 elements at t=1 fit in a box of 10
    assert m == 2 and len(elems) == 6
    assert canon_set([(1, 0, 0), (6, 1, -2), (3, 0, -1), (2, 1, -1),
                      (0, 1, 1), (0, -3, 2)]) == set(elems)


def test_brute_force_agrees_with_golden():
    for t in (2, 8, 12):
        param = validate_parameter(t)
        want_m, want_elems = expected_minimal(param)
        m, elems = brute_force_minimal(param, t + 40)
        assert (m, elems) == (want_m, want_elems)


def _valid_t(limit):
    return st.integers(1, limit).filter(
        lambda t: t != 3 and odd_square_divisor(t * t + 16) is None)


def _check_scan(table, param, box, shift):
    """Check every cell of every X1 slice of `_index_scan` against the determinant mod 2^64.

    The number of X1 slices and row blocks yielded, with every (x1, x2) row
    covered exactly once, is returned as (slices, blocks).
    """
    rows, slices = [], 0
    for x1, x2s, vals in _index_scan(param, box, shift):
        assert vals.shape == (len(x2s), 2 * box + 1) and vals.dtype == np.uint64
        for a, x2 in enumerate(x2s):
            for b, x3 in enumerate(range(-box, box + 1)):
                assert int(vals[a, b]) == (_basis_det(table, (x1, x2, x3)) + shift) % 2 ** 64
            rows.append((x1, x2))
        slices += 1
    assert sorted(rows) == list(product(range(box + 1), range(-box, box + 1)))
    return slices, slices // (box + 1)


@settings(max_examples=60, deadline=None)
@given(t=_valid_t(10_000), box=st.integers(1, 8), shift=st.integers(0, 16))
@example(t=9_999, box=8, shift=16)
def test_index_form_matches_exact(t, box, shift):
    # the difference scan is exact mod 2^64 even where (t up to 10^4) the
    # values overflow 64 bits; boxes below 6 end inside the seven starting
    # differences, boxes 6..8 step past them
    param = validate_parameter(t)
    assert _check_scan(_mult_table(param), param, box, shift) == (box + 1, 1)


@pytest.mark.parametrize("t", (5, 9_999))
def test_index_scan_restarts_at_each_row_block(monkeypatch, t):
    # a plane of 15 x 15 cells held 4 rows at a time, the last block 3 rows:
    # every block starts its own differences, and the oracle reads every block
    param = validate_parameter(t)
    want = brute_force_minimal(param, 7)
    monkeypatch.setattr(driver, "_PLANE_CELLS", 4 * 15 + 14)
    assert _check_scan(_mult_table(param), param, 7, param.n) == (4 * 8, 4)
    assert brute_force_minimal(param, 7) == want


def test_box_oracle_working_set_is_bounded():
    # one row block of at most 2^15 cells of the (X2, X3) plane at a time: at
    # the CLI cap (601 x 601 cells per X1 slice) the traced peak stays small
    tracemalloc.start()
    try:
        m, elems = brute_force_minimal(validate_parameter(64), MAX_BRUTE_BOX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 16 and len(elems) == 4
    assert peak < 4.5 * 2 ** 20


@pytest.mark.parametrize("t", (1, 2, 4, 8, 9999))  # one t per 2-adic class, and a large one
def test_index_form_against_sympy_discriminant(quartic_disc, char_poly, t):
    # the corner table is read off _basis_det itself, so the referee here is
    # the theorem disc(char_poly(e)) = I(e)^2 disc_K mod 2^64, its right side
    # by sympy's characteristic polynomial and discriminant, at points far
    # outside the box, by Newton's forward formula with binomials of negative
    # arguments; X0 != 0 too, as neither side depends on it
    param = validate_parameter(t)
    box = 3
    corner = _corner_table(param, box)
    assert corner.shape == (7, 7, 7) and corner.dtype == np.uint64

    def binom(x, j):  # C(x, j) for any integer x
        return prod(range(x - j + 1, x + 1)) // factorial(j)

    rng = random.Random(t)
    for _ in range(40):
        x0, x1, x2, x3 = (rng.randint(-10 ** 4, 10 ** 4) for _ in range(4))
        value = sum(binom(x1, i) * binom(x2 + box, j) * binom(x3 + box, k) * int(corner[i, j, k])
                    for i, j, k in product(range(7), repeat=3))
        matrix = mult_matrix(AlgebraicInt((x0, x1, x2, x3)), param)
        assert (value ** 2 * param.disc_K - quartic_disc(char_poly(matrix))) % 2 ** 64 == 0


@pytest.mark.parametrize("point", (0, 1, 12, 20, 27, 119))
def test_index_form_rejects_a_wrong_value(monkeypatch, point):
    # one of the 120 corner values off by one is no form of degree 6: some
    # difference of order 7 is then not 0
    def off_by_one(table, x):
        vals = _basis_det(table, x)
        assert vals.shape == (120,)
        vals[point] += 1
        return vals

    monkeypatch.setattr(driver, "_basis_det", off_by_one)
    with pytest.raises(ArithmeticError, match="not of degree 6"):
        _corner_table(validate_parameter(5), 4)


@settings(max_examples=60, deadline=None)
@given(t=_valid_t(1000), box=st.integers(1, 5))
@example(t=1, box=7)  # boxes past 6: X1 slices from the difference steps,
@example(t=12, box=8)  # not only from the seven starting values
def test_brute_force_matches_plain_scan(t, box):
    param = validate_parameter(t)
    by_index = {}
    rng = range(-box, box + 1)
    for x1 in rng:
        for x2 in rng:
            for x3 in rng:
                m = index_oracle(AlgebraicInt((0, x1, x2, x3)), param)
                if m is not None:
                    by_index.setdefault(m, set()).add(canonical_triple((x1, x2, x3)))
    m = min(by_index)
    want = tuple(sorted(by_index[m], key=lambda c: (c[2], c[1], c[0])))
    assert brute_force_minimal(param, box) == (m, want)


def test_rigor_label():
    assert Rigor.bounded(500).label() == "BoundedSearchOnly(500)"
    assert Rigor.certain().label() == "Proven"


def test_minimal_index_takes_any_thue_box():
    # the Thue roots expand to any box: at t = 64, a bounded result, a box of
    # 10^500 keeps the default box's m and elements
    param = validate_parameter(64)
    default, huge = minimal_index(param), minimal_index(param, 10 ** 500)
    assert (huge.m, huge.elements) == (default.m, default.elements)
    assert huge.rigor == Rigor.bounded(10 ** 500)
