"""Acceptance gate: one test per criterion, each checked at its stated
tolerance (exact equality everywhere; runtimes enforced where stated) and
reporting one pass/fail line on stdout.
"""

import contextlib
import io
import itertools
import time

from chowops import fp_linalg as fl
from chowops.chow import (RingMap, elem_abelian_ring, poly_add, poly_scale,
                          ring_module)
from chowops.cli import main as cli_main
from chowops.groups import FiniteGroup, rep_classes
from chowops.lannes import ell_check, tv_dim, tv_structural
from chowops.localization import (_AbelianSetup, build_lambda, d0_estimate,
                                  f_iso_check)
from chowops.modules import brown_gitler, fp_dim, hom_space, nilpotence_degree
from chowops.powers import reduce_word

from conftest import (DATA, all_iso, conj, direct_sum, fp_test_modules,
                      free_presentation, level_sweep, max_nil_submodule,
                      mixed_test_modules, point_module, point_presentation,
                      tensor_convolution_check)


def report(number, label, ok, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    extra = f" [{elapsed:.1f}s" + (f" < {limit}s]" if limit else "]")
    print(f"{status} criterion {number}: {label}{extra}")
    assert ok, f"criterion {number} failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def abelian(spec, name=None):
    return FiniteGroup.from_abelian(spec, name=name)


def test_criterion_01_adem_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        ring = elem_abelian_ring(3, p)
        monomials = [m for d in range(13) for m in ring.basis(d)]
        for a in range(1, 10):
            for b in range(1, 11 - a):
                expansion = reduce_word((a, b), p)
                for mono in monomials:
                    raw = ring.act(a, ring.act(b, {mono: 1}))
                    nf = {}
                    for w, c in expansion.items():
                        nf = poly_add(
                            nf, poly_scale(ring.act_word(w, {mono: 1}), c, p), p)
                    if raw != nf:
                        ok = False
    report(1, "normal-form action equals raw action "
              "(p in {2,3,5}, a+b <= 10, three variables through degree 12)",
           ok, time.monotonic() - t0, limit=30)


def test_criterion_02_structural_product_for_cyclic_p():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        tv = tv_structural(abelian([p]), 1, p)
        ok &= len(tv.components) == p
        ok &= all(tv.dim(k) == p for k in range(9))
        rep = ell_check(abelian([p]), 1, 8, p)
        ok &= all(r["injective"] and r["dimension_match"] for r in rep)
    report(2, "T of the cyclic ring is p copies, comparison map injective "
              "and dimension-matching through degree 8", ok,
           time.monotonic() - t0, limit=10)


def test_criterion_03_representability():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        sources = [free_presentation(d, p) for d in range(5)]
        sources += fp_test_modules(p)
        for m in sources:
            for k in range(7):
                target = brown_gitler(k, 14, p)
                if hom_space(m, target).dim != fp_dim(m, k):
                    ok = False
    report(3, "Hom into the degree-k dual equals the independent "
              "presentation-rank count (free d <= 4 and five fixed modules, "
              "k <= 6, p in {2,3})", ok, time.monotonic() - t0, limit=30)


def test_criterion_04_tensor_theorem():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        mods = fp_test_modules(p)
        for m, n in itertools.combinations_with_replacement(mods, 2):
            for r in (1, 2):
                if not tensor_convolution_check(m, n, r, 6):
                    ok = False
    report(4, "T of a tensor product has the convolved dimension table "
              "(all pairs of the fixed module set, r <= 2, degrees <= 6)",
           ok, time.monotonic() - t0, limit=60)


def test_criterion_05_nilpotence_bridge():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        cases = [(point_presentation(d, p), d) for d in range(6)]
        cases += mixed_test_modules(p)
        for m, expected in cases:
            n, verdict = nilpotence_degree(m, 8)
            first = min((k for k in range(9)
                         if any(tv_dim(m, r, k) for r in (0, 1, 2))),
                        default=None)
            if not (verdict == "exact" and n == expected == first):
                ok = False
    report(5, "nilpotence degree equals the first degree where a T-dimension "
              "is nonzero (points d <= 5 and three mixed modules, cutoff 8)",
           ok, time.monotonic() - t0)


def _acceptance_groups(p):
    out = [abelian([p] * k, name=f"(Z/{p})^{k}") for k in (1, 2, 3)]
    out.append(abelian([p * p], name=f"Z/{p}^2"))
    out.append(abelian([p ** 3], name=f"Z/{p}^3"))
    out.append(abelian([p * p, p], name=f"Z/{p}^2 x Z/{p}"))
    return out


def test_criterion_06_f_isomorphism():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        for G in [abelian([1], name="1")] + _acceptance_groups(p):
            cert = f_iso_check(G, 8, p)
            # the map to the limit is res_{G->T}, T the terminal object:
            # by elimination in each degree, its kernel is empty and its
            # image has a zero residual map, so it is onto the limit
            setup = _AbelianSetup(G, p)
            res_T = RingMap(setup.data_G.ring, setup.data_G.ring,
                            setup.res_T)
            for d in range(9):
                res = res_T.matrix(d)
                if (fl.kernel_basis(res, p)
                        or fl.residual_map(res, len(res), p).any()
                        or cert.limit_dims[d] != len(res)
                        or sum(e == d for e, _ in cert.image_report)
                        != len(res)):
                    ok = False
    report(6, "restriction to the limit over elementary abelians has empty "
              "kernel and full image, by elimination in each degree "
              "(cutoff 8, p in {2,3})",
           ok, time.monotonic() - t0, limit=60)


_GROUP_FILES = {2: ["z2.json", "klein.json", "z2cube.json", "z4.json",
                    "z8.json", "z4xz2.json"],
                3: ["z3.json", "z3sq.json", "z3cube.json", "z9.json",
                    "z27.json", "z9xz3.json"]}


def test_criterion_07_localization_consistency():
    import json

    from chowops.groups import load_group

    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        for fname in _GROUP_FILES[p]:
            with open(DATA / "groups" / fname) as fh:
                G = load_group(json.load(fh))
            for n in (1, 2, 3):
                diag = build_lambda(G, n, 8, p)
                if not all(diag.legs_agree.values()):
                    ok = False
            d0, _ = d0_estimate(G, 8, p)
            d1, _ = level_sweep(G, 8, p, all_iso)[0]
            if (d0, d1) != (0, 0):
                ok = False
            fd = G.faithful_degree  # minimal faithful degree from the file
            if fd is None or d0 > fd * (fd - 1) // 2:
                ok = False
    report(7, "equalizer legs agree on the image of the localization map, "
              "d0 = d1 = 0, and d0 respects the n(n-1)/2 bound (n in "
              "{1,2,3}, cutoff 8, faithful degrees from the group files)",
           ok, time.monotonic() - t0)


def test_criterion_08_largest_nilpotent_submodule_identity():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        for G in _acceptance_groups(p):
            from chowops.chow import abelian_ring
            ring = abelian_ring(G, p).ring
            d0, _ = d0_estimate(G, 8, p)
            largest = 0
            for level in range(1, 9):
                if max_nil_submodule(ring, level, 8):
                    largest = level
                else:
                    break
            if d0 != largest:
                ok = False
        for d in (1, 2, 3, 4):
            v = ring_module(elem_abelian_ring(1, p), p * 8)
            m = direct_sum(v, point_module(d, p))
            levels = [lv for lv in range(1, 9)
                      if max_nil_submodule(m, lv, 8)]
            if not levels or max(levels) != d:
                ok = False
    report(8, "d0 equals the largest level with a nonzero certified "
              "nilpotent submodule; forced answers on synthetic sums "
              "(d <= 4, cutoff 8)", ok, time.monotonic() - t0)


def test_criterion_09_rep_class_counts():
    t0 = time.monotonic()
    import json
    ok = True
    shipped = ["s3.json", "d4.json", "q8.json", "a4.json", "z2.json",
               "z3.json", "z4.json", "z6.json", "z8.json", "z9.json",
               "z12.json", "klein.json", "z2cube.json", "z3sq.json",
               "z4xz2.json", "z9xz3.json"]
    from chowops.groups import load_group
    for fname in shipped:
        with open(DATA / "groups" / fname) as fh:
            G = load_group(json.load(fh))
        if len(G) > 24:
            continue
        for p in (2, 3):
            torsion = G.p_torsion(p)
            for r in (1, 2):
                classes = rep_classes(r, G, p)
                commuting = [
                    t for t in itertools.product(torsion, repeat=r)
                    if all(G.mul(a, b) == G.mul(b, a)
                           for a, b in itertools.combinations(t, 2))]
                # independent count: orbit-counting over the conjugation
                # action (Burnside), no representative machinery involved
                fixed_total = 0
                for g in G.elements():
                    fixed_total += sum(
                        1 for t in commuting
                        if tuple(conj(G, g, x) for x in t) == t)
                if len(classes) * len(G) != fixed_total:
                    ok = False
                if sum(c.orbit_size for c in classes) != len(commuting):
                    ok = False
    report(9, "class counts match Burnside orbit counting and orbit sizes "
              "sum to the commuting-tuple total (all shipped groups of "
              "order <= 24, r <= 2)", ok, time.monotonic() - t0, limit=60)


def test_criterion_10_determinism():
    t0 = time.monotonic()

    battery = [
        ["adem", "--prime", "3", "--expr", "P^2 P^3 + 2 * P^4 P^1"],
        ["act", "--prime", "3", "--rank", "2", "--op", "P^2",
         "--poly", "y1^2 y2^2"],
        ["tv", "--group", str(DATA / "groups" / "z3sq.json"), "--rank", "1",
         "--cutoff", "6", "--prime", "3", "--format", "json"],
        ["tv", "--module", str(DATA / "modules" / "tied_p2.json"),
         "--rank", "2", "--cutoff", "6"],
        ["reps", "--group", str(DATA / "groups" / "a4.json"),
         "--prime", "2", "--rank", "2"],
        ["quillen-check", "--group", str(DATA / "groups" / "z2cube.json"),
         "--prime", "2", "--cutoff", "6", "--format", "json"],
        ["localize", "--group", str(DATA / "groups" / "z9xz3.json"),
         "--prime", "3", "--level", "2", "--cutoff", "6"],
        ["d0", "--group", str(DATA / "groups" / "klein.json"),
         "--prime", "2", "--cutoff", "6"],
        ["nil", "--module", str(DATA / "modules" / "point2_p2.json"),
         "--cutoff", "6", "--format", "json"],
    ]

    def run_all():
        chunks = []
        for argv in battery:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            chunks.append((code, buf.getvalue()))
        return chunks

    first = run_all()
    second = run_all()
    ok = first == second and all(code == 0 for code, _ in first)
    report(10, "two consecutive full runs emit byte-identical TSV/JSON",
           ok, time.monotonic() - t0)
