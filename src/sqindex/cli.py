"""Command-line interface.

Subcommands: basis, index, minimal-index, thue, enumerate, verify-paper.
Exit codes: 0 success, 1 verification failure (any ArithmeticError), 2 invalid input.
Output is a human-readable table by default or a deterministic JSON
document with --json (identical runs differ only in the timing field).
Every Thue box (thue --bound, --thue-bound) is capped at MAX_THUE_BOUND.
The search scans root windows up to a Legendre threshold q* that grows
like sqrt|w| but not with the box B, and walks convergents past it in
O(log B) rows and bits, so the box costs little.  A right side of `thue`
that is not +-2^e and that the box reaches is capped at MAX_THUE_RHS in
absolute value, since the search costs time growing like sqrt|w|.  One
beyond the reach of the box has no solution there at once.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import gcd

from . import __version__, goldens
from .fieldmodel import ParameterError, validate_parameter
from .elements import AlgebraicInt, NotIntegral, PowerRep, from_power_rep, \
    index_oracle, to_power_rep
from .indexcore import index_via_forms
from .thue import (DEFAULT_THUE_BOUND, UnsupportedW, bounded_search_multi, family_form,
                   solve_power_of_two)
from .driver import brute_force_minimal, enumerate_case2_triples, minimal_index

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
MAX_BRUTE_BOX = 300  # (B+1)(2B+1)^2 cells, 6 adds each, <= 2^15 at once; >= t + 40 at golden t
MAX_THUE_BOUND = 10**30  # windows to q*, then O(log B) convergent rows per root
# worst call (t = 1, w just under the cap, B = 10^30): about 1.1 s in a fresh
# process on 2 cores, 4 s at 10^12; time grows like sqrt|w|; own |w| < 2^29
MAX_THUE_RHS = 10**11


def _report(args, command: str, inputs: dict, results: dict, t0: float) -> dict:
    doc = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_ms": round(1000 * (time.time() - t0), 3),
        "version": __version__,
    }
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    return doc


def _positive_int(text: str) -> int:
    """argparse type for box sizes: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _thue_bound(text: str) -> int:
    """argparse type for Thue boxes: an integer from 1 to MAX_THUE_BOUND."""
    value = _positive_int(text)
    if value > MAX_THUE_BOUND:
        raise argparse.ArgumentTypeError(f"{value} exceeds the cap {MAX_THUE_BOUND}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type for comma-separated integers."""
    return [int(x) for x in text.replace(",", " ").split()]


def _poly_str(num, den) -> str:
    names = ["1", "x", "x^2", "x^3"]
    parts = []
    for c, name in zip(num, names):
        if c == 0:
            continue
        if name == "1":
            parts.append(f"{c}")
        elif c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    body = " + ".join(parts).replace("+ -", "- ") or "0"
    return body if den == 1 else f"({body})/{den}"


def _param(args):
    return validate_parameter(args.t, getattr(args, "allow_hypothesis_violation", False))


def cmd_basis(args) -> int:
    t0 = time.time()
    param = _param(args)
    rows = []
    for row in param.basis_num:
        g = gcd(param.g, *row)
        num, den = [c // g for c in row], param.g // g
        rows.append({"num": num, "den": den, "pretty": _poly_str(num, den)})
    results = {
        "v2_class": param.v2_class.name,
        "g": param.g,
        "n": param.n,
        "disc_P": param.disc_P,
        "disc_K": param.disc_K,
        "odd_part_squarefree": param.odd_part_squarefree,
        "basis": rows,
        "denom": param.g,
    }
    _report(args, "basis", {"t": args.t}, results, t0)
    if not args.json:
        print(f"t = {args.t}  class {param.v2_class.name}  g = {param.g}  n = I(xi) = {param.n}")
        print(f"disc(P_t) = {param.disc_P}")
        print(f"disc(K)   = {param.disc_K}")
        for i, row in enumerate(rows):
            print(f"b{i+1} = {row['pretty']}")
    return EXIT_OK


def cmd_index(args) -> int:
    t0 = time.time()
    param = _param(args)
    if args.coords is not None:
        vals = args.coords
        if len(vals) == 3:
            vals = [0] + vals
        if len(vals) != 4:
            raise ParameterError("--coords needs X1,X2,X3 or X0,X1,X2,X3")
        elem = AlgebraicInt(tuple(vals))
        rep = to_power_rep(elem, param)
    else:
        vals = args.power
        if len(vals) != 5:
            raise ParameterError("--power needs a,x,y,z,d")
        if vals[4] < 1:
            raise ParameterError(f"--power needs d >= 1, got {vals[4]}")
        rep = PowerRep.reduced(*vals)
        elem = from_power_rep(rep, param)
    m_oracle = index_oracle(elem, param)
    m_forms = index_via_forms(rep, param)
    results = {
        "coords": list(elem.coords),
        "power_rep": [rep.a, rep.x, rep.y, rep.z, rep.d],
        "index_oracle": m_oracle,
        "index_via_forms": m_forms,
        "degenerate": m_oracle is None,
        "agree": m_oracle == m_forms,
    }
    _report(args, "index", {"t": args.t}, results, t0)
    if not args.json:
        if m_oracle is None:
            print("degenerate: element does not generate the field")
        else:
            print(f"index (basis-determinant oracle) = {m_oracle}")
            print(f"index (resolvent forms)          = {m_forms}")
    return EXIT_OK if m_oracle == m_forms else EXIT_VERIFY


def _element_str(e) -> str:
    return "(" + ",".join(str(c) for c in e) + ")"


def cmd_minimal_index(args) -> int:
    t0 = time.time()
    if args.box is not None and not args.brute_check:
        raise ParameterError("--box needs --brute-check")
    param = _param(args)
    if args.box is None:
        args.box = args.t + 40
    if args.brute_check and args.box > MAX_BRUTE_BOX:
        raise ParameterError(f"--brute-check box {args.box} exceeds the cap {MAX_BRUTE_BOX}")
    res = minimal_index(param, thue_bound=args.thue_bound)
    results = {
        "m": res.m,
        "elements": [list(e) for e in res.elements],
        "rigor": res.rigor.label(),
        "hypothesis_ok": res.hypothesis_ok,
        "trace": {_element_str(k): [h._asdict() for h in v] for k, v in sorted(res.trace.items())},
    }
    exit_code = EXIT_OK
    if args.brute_check:
        bm, belems = brute_force_minimal(param, args.box)
        results["brute_force"] = {"box": args.box, "m": bm,
                                  "elements": [list(e) for e in belems]}
        # the oracle sees only the box: it must find exactly the pipeline's elements
        # inside it, or, when none lies inside, only a larger index
        inside = tuple(e for e in res.elements if max(map(abs, e)) <= args.box)
        results["brute_agrees"] = (belems == inside if bm == res.m
                                   else bm > res.m and not inside)
        if not results["brute_agrees"]:
            exit_code = EXIT_VERIFY
    _report(args, "minimal-index", {"t": args.t}, results, t0)
    if not args.json:
        flag = "" if res.hypothesis_ok else "  [Hypothesis-Violated]"
        print(f"t = {args.t}: minimal index m = {res.m}  ({res.rigor.label()}){flag}")
        for e in res.elements:
            print(f"  {_element_str(e)}")
        if args.brute_check:
            verdict = "agrees" if results["brute_agrees"] else "DISAGREES"
            print(f"brute-force box {args.box}: m = {results['brute_force']['m']} ({verdict})")
    return exit_code


def cmd_thue(args) -> int:
    t0 = time.time()
    validate_parameter(args.t, allow_hypothesis_violation=True)
    w = args.w
    if w == 0:
        raise ParameterError("w must be nonzero")
    form = family_form(args.t)
    if abs(w) & (abs(w) - 1) == 0:
        sols = solve_power_of_two(args.t, w)
    elif MAX_THUE_RHS < abs(w) <= form.reach(args.bound):
        raise ParameterError(f"|w| exceeds the cap {MAX_THUE_RHS} for a w not +-2^e "
                             f"within reach of the box {args.bound}")
    else:
        sols = bounded_search_multi(form, [w], args.bound)[w]
    results = {
        "w": w,
        "solutions": [list(p) for p in sols.pairs],
        "complete": sols.rigor.proven,
        "rigor": sols.rigor.label(),
    }
    _report(args, "thue", {"t": args.t, "w": w}, results, t0)
    if not args.json:
        print(f"F_{args.t}(p,q) = {w}: {len(sols.pairs)} solution pair(s), {results['rigor']}")
        for p, q in sols.pairs:
            print(f"  (p,q) = ({p},{q})")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    t0 = time.time()
    triples = enumerate_case2_triples(args.t_max)
    results = {
        "t_max": args.t_max,
        "count": len(triples),
        "triples": [{"t": c.t, "u": c.u, "v": c.v, "m": c.implied_m,
                     "a1": c.a1, "a2": c.a2, "i": c.i, "l": c.l,
                     "hypothesis_ok": c.hypothesis_ok} for c in triples],
    }
    exit_code = EXIT_OK
    if args.compare_paper:
        enum = {(c.t, c.u, c.v) for c in triples}
        missing = [list(g) for g in goldens.case2_golden()
                   if g not in enum and (g[0], -g[1], -g[2]) not in enum]
        results["golden_missing"] = missing
        if missing:
            exit_code = EXIT_VERIFY
    _report(args, "enumerate", {"t_max": args.t_max}, results, t0)
    if not args.json:
        for c in triples:
            flag = "" if c.hypothesis_ok else "  [hypothesis violated]"
            print(f"t={c.t:4d}  u={c.u:6d}  v={c.v:3d}  m={c.implied_m:2d}  "
                  f"(a1={c.a1}, a2={c.a2}, i={c.i}, l={c.l}){flag}")
        print(f"{len(triples)} triples")
        if args.compare_paper:
            if results["golden_missing"]:
                print("MISSING golden entries:", results["golden_missing"])
            else:
                print("all golden table entries present")
    return exit_code


def _verify_one(t: int, thue_bound: int) -> dict:
    param = validate_parameter(t, allow_hypothesis_violation=True)
    res = minimal_index(param, thue_bound=thue_bound)
    want_m, want_elems = goldens.expected_minimal(param)
    ok = (res.m == want_m and res.elements == want_elems)
    return {
        "t": t,
        "ok": ok,
        "m": res.m,
        "expected_m": want_m,
        "count": len(res.elements),
        "rigor": res.rigor.label(),
        "hypothesis_ok": res.hypothesis_ok,
        "elements": [list(e) for e in res.elements],
        "expected_elements": [list(e) for e in want_elems],
    }


def cmd_verify_paper(args) -> int:
    t0 = time.time()
    if args.t == []:
        raise ParameterError("--t needs at least one t")
    ts = sorted(set(args.t or goldens.EXCEPTIONAL_T + goldens.GENERIC_SAMPLE_T))
    rows = [_verify_one(t, args.thue_bound) for t in ts]
    n_fail = sum(1 for r in rows if not r["ok"])
    results = {"rows": rows, "failures": n_fail}
    _report(args, "verify-paper", {"t_list": ts}, results, t0)
    if not args.json:
        for r in rows:
            status = "ok  " if r["ok"] else "FAIL"
            flag = "" if r["hypothesis_ok"] else " [hypothesis violated]"
            print(f"{status} t={r['t']:4d}  m={r['m']:2d} (expected {r['expected_m']:2d})  "
                  f"{r['count']:2d} elements  {r['rigor']}{flag}")
        print(f"{len(rows) - n_fail}/{len(rows)} parameters match the golden tables")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqindex",
        description="Minimal indices and power integral bases in the "
                    "simplest quartic fields x^4 - t*x^3 - 6*x^2 + t*x + 1.")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--version", action="version", version=f"sqindex {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="integral basis and field data for t")
    p.add_argument("t", type=int)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("index", help="index of a single element, both oracles")
    p.add_argument("t", type=int)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--coords", type=_int_list, help="X1,X2,X3 or X0,X1,X2,X3 (integral basis)")
    grp.add_argument("--power", type=_int_list, help="a,x,y,z,d power representation")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("minimal-index", help="minimal index and all attaining elements")
    p.add_argument("t", type=int)
    p.add_argument("--brute-check", action="store_true",
                   help="also run the box oracle and require agreement inside its box")
    p.add_argument("--box", type=_positive_int, default=None,
                   help=f"box size for --brute-check (default t+40, at most {MAX_BRUTE_BOX})")
    p.add_argument("--thue-bound", type=_thue_bound, default=DEFAULT_THUE_BOUND)
    p.add_argument("--allow-hypothesis-violation", action="store_true")
    p.set_defaults(func=cmd_minimal_index)

    p = sub.add_parser("thue", help="solve F_t(p,q) = w")
    p.add_argument("t", type=int)
    p.add_argument("w", type=int,
                   help=f"right side; |w| at most {MAX_THUE_RHS} (a search of a few "
                        "seconds) unless w = +-2^e or no point of the box reaches it")
    p.add_argument("--bound", type=_thue_bound, default=DEFAULT_THUE_BOUND,
                   help=f"search box for w not of the form +-2^e (at most {MAX_THUE_BOUND})")
    p.set_defaults(func=cmd_thue)

    p = sub.add_parser("enumerate", help="all case-II (t,u,v) candidates up to t-max "
                                         "(108 cones over the family, all at t <= 256)")
    p.add_argument("--t-max", type=int, default=256)
    p.add_argument("--compare-paper", action="store_true",
                   help="require the golden table to be a subset")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="check solver output against golden tables")
    p.add_argument("--t", type=_int_list, help="comma-separated t list (default: the golden set)")
    p.add_argument("--thue-bound", type=_thue_bound, default=DEFAULT_THUE_BOUND)
    p.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, NotIntegral, UnsupportedW) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:  # VerificationError and every other failed exact check
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
